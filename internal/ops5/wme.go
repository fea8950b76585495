package ops5

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"unsafe"
)

// Attr is one named attribute value: the form in which a wme holds
// what its layout has no slot for.
type Attr struct {
	Name  string
	Value Value
}

// Layout is one class's attribute → slot table, the run-time residue of
// OPS5's literalize: a compiled network assigns every attribute its
// productions mention a slot, and a wme of the class keeps those
// attributes in an array indexed by slot, so a compiled test reads an
// attribute with an indexed load instead of a lookup by name.
//
// A layout belongs to one compiled network (rete.Network owns the
// table and a layout's ID is its index there). It is written only while
// that network is compiled, or a production is added to a private one,
// and is read-only otherwise, so any number of sessions may share it.
// It only ever grows: a slot, once assigned, keeps its attribute.
type Layout struct {
	id    int
	class string
	names []string       // slot → attribute
	index map[string]int // attribute → slot
	// order lists the slots by ascending attribute name, so printing and
	// comparing walk a wme in attribute order without sorting.
	order []int
}

// NewLayout returns a layout for class with the given attributes in
// slot order. id is the layout's index in its owner's table.
func NewLayout(id int, class string, attrs ...string) *Layout {
	l := &Layout{id: id, class: class, index: make(map[string]int, len(attrs))}
	for _, a := range attrs {
		l.Add(a)
	}
	return l
}

// ID returns the layout's index in its network's table.
func (l *Layout) ID() int { return l.id }

// Class returns the class the layout describes.
func (l *Layout) Class() string { return l.class }

// Len returns the number of slots.
func (l *Layout) Len() int {
	if l == nil {
		return 0
	}
	return len(l.names)
}

// Names returns the attributes in slot order. The slice is the
// layout's own: read it, do not write it.
func (l *Layout) Names() []string { return l.names }

// Slot returns the slot holding attr.
func (l *Layout) Slot(attr string) (slot int, ok bool) {
	if l == nil {
		return 0, false
	}
	slot, ok = l.index[attr]
	return slot, ok
}

// Add returns the slot holding attr, assigning the next free one on
// first mention.
func (l *Layout) Add(attr string) int {
	if slot, ok := l.index[attr]; ok {
		return slot
	}
	slot := len(l.names)
	l.names = append(l.names, attr)
	l.index[attr] = slot
	at, _ := slices.BinarySearchFunc(l.order, attr, func(s int, name string) int {
		return strings.Compare(l.names[s], name)
	})
	l.order = slices.Insert(l.order, at, slot)
	return slot
}

// New returns a wme of the layout's class with every attribute absent.
// Up to eight slots, the wme and its slots are one allocation.
func (l *Layout) New() *WME {
	w := (*Carver)(nil).slotted(len(l.names))
	w.Class, w.layout = l.class, l
	return w
}

// Conform returns a copy of w, a wme of the layout's class, laid out by
// l: the attributes l has slots for in their slots, the rest as extras.
// ID and time tag are kept. w itself is not touched.
//
// The nil layout has no slots, Slot finds nothing in it, and conforming
// to it gives the loose form.
func (l *Layout) Conform(w *WME) *WME { return (*Carver)(nil).Conform(l, w) }

// WME is a working-memory element: a class name plus a set of
// attribute-value pairs. Each wme carries a unique ID (assigned by the
// working memory that owns it) and a time tag (the cycle on which it
// was created), which conflict resolution uses for recency ordering.
//
// A wme is a row. A laid-out wme (Layout.New, Layout.Conform) keeps the
// attributes its layout names in slots, where the nil Value is an
// absent attribute, and whatever else it carries in extra, sorted by
// name. A loose wme (NewWME, ParseWMEs, the zero WME with a Class) has
// no layout and keeps everything in extra. The two forms of the same
// content are Equal, print alike and match alike; the laid-out one is
// just faster to read. Absent and nil are one thing: a nil value is
// never stored, printed or counted.
//
// The invariant the accessors keep: an attribute lives in slots exactly
// when the layout gives it a slot below len(slots), and in extra
// otherwise. len(slots) falls short of the layout only when the layout
// grew after the wme was made (a production added to a live engine).
type WME struct {
	ID      int
	TimeTag int
	Class   string

	layout *Layout
	slots  []Value
	extra  []Attr
}

// The embedded-array sizes that make a wme and its slots one
// allocation, one per row width a class has: OPS5 classes are narrow
// (the bundled workloads' widest has four attributes), and a row as
// wide as its class takes the 128-, 160-, 192- or 224-byte size class
// instead of always the last. Wider than eight slots, the slots are a
// second allocation.
type (
	wme1 struct {
		WME
		a [1]Value
	}
	wme2 struct {
		WME
		a [2]Value
	}
	wme3 struct {
		WME
		a [3]Value
	}
	wme4 struct {
		WME
		a [4]Value
	}
	wme8 struct {
		WME
		a [8]Value
	}
)

// rowChunkBytes caps a Carver's chunk at the largest size-classed heap
// object: a bigger one would be a large object rounded up to whole
// pages.
const rowChunkBytes = 32 << 10

// A Carver makes rows by the batch. A caller counts the rows the batch
// will make, by slot count (Expect), then takes them one at a time
// (Conform, Clone). A row of one to four slots comes from a chunk of
// rows of its width, one allocation sized to what is still expected
// and capped at 32 KiB; a wider or slotless row is an allocation of its
// own, as Layout.New makes it, and so is a row no Expect counted once
// its width's chunk is used up. A chunk stays live while any of its
// rows does. The zero Carver is ready; the nil Carver allocates every
// row on its own.
type Carver struct {
	need [5]int // rows of one to four slots expected and not yet in a chunk
	c1   []wme1
	c2   []wme2
	c3   []wme3
	c4   []wme4
}

// Expect counts one more row of n slots that the batch will take.
func (c *Carver) Expect(n int) {
	if n >= 1 && n < len(c.need) {
		c.need[n]++
	}
}

// carve takes the next row of a chunk, allocating the chunk when the
// last one is used up: as many rows as are still expected, at least
// one, and no more than rowChunkBytes hold.
func carve[T any](chunk *[]T, need *int) *T {
	if len(*chunk) == 0 {
		var row T
		n := min(max(*need, 1), int(rowChunkBytes/unsafe.Sizeof(row)))
		*need = max(*need-n, 0)
		*chunk = make([]T, n)
	}
	x := &(*chunk)[0]
	*chunk = (*chunk)[1:]
	return x
}

// slotted returns a wme with n absent slots. Up to four slots it is a
// row of the carver's chunk of its width (the nil carver's chunk is the
// one row); up to eight, the wme and its slots are one allocation;
// wider, the slots are a second.
func (c *Carver) slotted(n int) *WME {
	if c == nil {
		var one Carver
		c = &one
	}
	switch {
	case n == 0:
		return new(WME)
	case n == 1:
		x := carve(&c.c1, &c.need[1])
		x.slots = x.a[:]
		return &x.WME
	case n == 2:
		x := carve(&c.c2, &c.need[2])
		x.slots = x.a[:]
		return &x.WME
	case n == 3:
		x := carve(&c.c3, &c.need[3])
		x.slots = x.a[:]
		return &x.WME
	case n == 4:
		x := carve(&c.c4, &c.need[4])
		x.slots = x.a[:]
		return &x.WME
	case n <= 8:
		x := new(wme8)
		x.slots = x.a[:n:n]
		return &x.WME
	}
	return &WME{slots: make([]Value, n)}
}

// Conform is l.Conform(w) into a row of the carver's.
func (c *Carver) Conform(l *Layout, w *WME) *WME {
	var r *WME
	if l != nil {
		r = c.slotted(len(l.names))
		r.Class, r.layout = l.class, l
		r.Refill(w)
	} else {
		r = &WME{Class: w.Class}
		r.setAll(w)
	}
	r.ID, r.TimeTag = w.ID, w.TimeTag
	return r
}

// Clone is w.Clone() into a row of the carver's.
func (c *Carver) Clone(w *WME) *WME {
	r := c.slotted(len(w.slots))
	r.ID, r.TimeTag, r.Class, r.layout = w.ID, w.TimeTag, w.Class, w.layout
	copy(r.slots, w.slots)
	r.extra = slices.Clone(w.extra)
	return r
}

// NewWME builds a loose wme from alternating attribute/value arguments.
// It is a convenience for tests and examples:
//
//	NewWME("block", "name", S("b1"), "color", S("blue"))
func NewWME(class string, pairs ...any) *WME {
	if len(pairs)%2 != 0 {
		panic("ops5.NewWME: odd number of attribute/value arguments")
	}
	w := &WME{Class: class}
	for i := 0; i < len(pairs); i += 2 {
		attr, ok := pairs[i].(string)
		if !ok {
			panic(fmt.Sprintf("ops5.NewWME: attribute %d is %T, want string", i/2, pairs[i]))
		}
		switch v := pairs[i+1].(type) {
		case Value:
			w.Set(attr, v)
		case string:
			w.Set(attr, S(v))
		case int:
			w.Set(attr, N(float64(v)))
		case float64:
			w.Set(attr, N(v))
		default:
			panic(fmt.Sprintf("ops5.NewWME: value for ^%s is %T", attr, pairs[i+1]))
		}
	}
	return w
}

// Layout returns the layout the wme's slots follow, nil for a loose
// wme.
func (w *WME) Layout() *Layout { return w.layout }

// Slots returns the wme's slot array, indexed as its layout's Names
// (the nil Value is an absent attribute). It is the wme's own storage:
// the wire codec reads it, and fills it on a wme it has just made.
func (w *WME) Slots() []Value { return w.slots }

// Extra returns, sorted by name, the attributes held outside the slots.
// Read-only.
func (w *WME) Extra() []Attr { return w.extra }

// Get returns the value of an attribute, or the nil Value if absent.
func (w *WME) Get(attr string) Value {
	if w.layout != nil {
		if slot, ok := w.layout.index[attr]; ok && slot < len(w.slots) {
			return w.slots[slot]
		}
	}
	for i := range w.extra {
		if w.extra[i].Name == attr {
			return w.extra[i].Value
		}
	}
	return Value{}
}

// At returns the value of the attribute name, which layout l keeps in
// slot: the slot itself when the wme is laid out by l and has that
// slot, and Get(name) otherwise. A compiled test, hash key or variable
// read carries (l, slot, name) and calls At, so the common case is an
// indexed load and the one fallback covers everything else without a
// re-layout pass and without ever reading the wrong slot: a loose wme,
// a wme laid out by another network, and a wme laid out before a
// production added to a live engine grew l.
func (w *WME) At(l *Layout, slot int, name string) Value {
	if w.layout == l && uint(slot) < uint(len(w.slots)) {
		return w.slots[slot]
	}
	return w.Get(name)
}

// Set gives an attribute a value; the nil Value removes it.
func (w *WME) Set(attr string, v Value) {
	if w.layout != nil {
		if slot, ok := w.layout.index[attr]; ok && slot < len(w.slots) {
			w.slots[slot] = v
			return
		}
	}
	// Search from the end: building in ascending order appends.
	i := len(w.extra)
	for i > 0 && w.extra[i-1].Name > attr {
		i--
	}
	switch found := i > 0 && w.extra[i-1].Name == attr; {
	case found && v.Nil():
		w.extra = slices.Delete(w.extra, i-1, i)
	case found:
		w.extra[i-1].Value = v
	case !v.Nil():
		if w.extra == nil {
			// Room for a typical loose wme, so building one attribute at
			// a time does not reallocate at one, two and three.
			w.extra = make([]Attr, 0, 4)
		}
		w.extra = slices.Insert(w.extra, i, Attr{Name: attr, Value: v})
	}
}

// SetAt is Set for a caller that resolved the attribute ahead of time,
// as At is Get: the slot store when the wme is laid out by l and has
// the slot, Set(name, v) otherwise.
func (w *WME) SetAt(l *Layout, slot int, name string, v Value) {
	if w.layout == l && uint(slot) < uint(len(w.slots)) {
		w.slots[slot] = v
		return
	}
	w.Set(name, v)
}

// Len returns the number of attributes the wme has.
func (w *WME) Len() int {
	n := len(w.extra)
	for i := range w.slots {
		if !w.slots[i].Nil() {
			n++
		}
	}
	return n
}

// Clone returns a deep copy of the wme (same class, attributes and
// layout, same ID and time tag): one allocation for a wme of up to
// eight slots and no extras. Modify actions clone before rewriting.
func (w *WME) Clone() *WME { return (*Carver)(nil).Clone(w) }

// Refill rewrites w, a row no reader holds any more, as a fresh wme of
// its layout with src's attributes — what Conform would make of src,
// blank for a nil src — with ID and time tag zero. src is of w's class.
// A working memory that recycles its rows asserts, makes and modifies
// into them with Refill, as Conform, Layout.New and Clone would into
// fresh ones, without allocating (an extra may grow the row's extras).
// It reports false, and leaves w as it was, when w cannot be refilled:
// it is loose, or was laid out before its layout grew.
func (w *WME) Refill(src *WME) bool {
	l := w.layout
	if l == nil || len(w.slots) != len(l.names) {
		return false
	}
	clear(w.slots)
	clear(w.extra)
	w.ID, w.TimeTag, w.Class, w.extra = 0, 0, l.class, w.extra[:0]
	switch {
	case src == nil:
	case src.layout == l && len(src.slots) == len(w.slots):
		copy(w.slots, src.slots)
		w.extra = append(w.extra, src.extra...)
	default:
		w.setAll(src)
	}
	return true
}

// setAll sets every attribute of src on w.
func (w *WME) setAll(src *WME) {
	for cur := (cursor{w: src}); ; {
		name, v, ok := cur.next()
		if !ok {
			return
		}
		w.Set(name, v)
	}
}

// Equal reports whether two wmes have the same class and attributes
// (IDs and time tags are ignored; used to locate duplicates). How each
// is laid out does not matter.
func (w *WME) Equal(o *WME) bool {
	if w.Class != o.Class {
		return false
	}
	a, b := cursor{w: w}, cursor{w: o}
	for {
		an, av, aok := a.next()
		bn, bv, bok := b.next()
		if !aok || !bok {
			return aok == bok
		}
		if an != bn || !av.Equal(bv) {
			return false
		}
	}
}

// AppendText appends the wme in OPS5 source syntax, attributes sorted
// for determinism — (block ^color blue ^name b1) — and returns the
// extended buffer. It is the one renderer: String calls it, and a
// caller with a buffer of its own (a snapshot reply) prints without an
// intermediate string.
func (w *WME) AppendText(buf []byte) []byte {
	buf = append(buf, '(')
	buf = append(buf, w.Class...)
	for cur := (cursor{w: w}); ; {
		name, v, ok := cur.next()
		if !ok {
			return append(buf, ')')
		}
		buf = append(buf, " ^"...)
		buf = append(buf, name...)
		buf = append(buf, ' ')
		if v.Kind == KindNum {
			buf = strconv.AppendFloat(buf, v.Num, 'g', -1, 64)
		} else {
			buf = append(buf, v.Sym...)
		}
	}
}

// String is AppendText as a string. The text is built in a stack array
// that holds any wme of the bundled workloads, so the string is the one
// allocation.
func (w *WME) String() string {
	var a [128]byte
	return string(w.AppendText(a[:0]))
}

// cursor walks a wme's attributes in ascending name order, absent ones
// skipped: a merge of the layout's precomputed slot order with the
// sorted extras.
type cursor struct {
	w    *WME
	i, j int // next position in w.layout.order and in w.extra
}

func (c *cursor) next() (name string, v Value, ok bool) {
	w := c.w
	var order []int
	if w.layout != nil {
		order = w.layout.order
	}
	for c.i < len(order) {
		if s := order[c.i]; s < len(w.slots) && !w.slots[s].Nil() {
			break
		}
		c.i++
	}
	if c.i < len(order) {
		s := order[c.i]
		if name = w.layout.names[s]; c.j == len(w.extra) || name < w.extra[c.j].Name {
			c.i++
			return name, w.slots[s], true
		}
	}
	if c.j < len(w.extra) {
		a := &w.extra[c.j]
		c.j++
		return a.Name, a.Value, true
	}
	return "", Value{}, false
}
