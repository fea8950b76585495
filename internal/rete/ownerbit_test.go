package rete_test

import (
	"hash/fnv"
	"math"
	"testing"

	"mpcrete/internal/engine"
	"mpcrete/internal/ops5"
	"mpcrete/internal/rete"
	"mpcrete/internal/workloads"
)

// refHashKey is the key the byte-wise fold made, written the slow way:
// the canonical bytes of the activation, spelled out, through the
// library's FNV-1a — node id, then per equality test a kind prefix, the
// value's bytes and a zero separator. Only its bit 0 is a contract of
// HashKey's: under round-robin at two workers it is the owner, and the
// word fold keeps it bit for bit.
func refHashKey(tab *rete.Table, n *rete.Node, side rete.Side, t rete.Token, w *ops5.WME) uint64 {
	le64 := func(x uint64) []byte {
		var buf [8]byte
		for i := range buf {
			buf[i] = byte(x >> (8 * i))
		}
		return buf[:]
	}
	h := fnv.New64a()
	h.Write(le64(uint64(n.ID)))
	for _, jt := range n.EqTests {
		var v ops5.Value
		if side == rete.Left {
			v = tab.WME(t.H[jt.LeftPos]).Get(jt.LeftAttr)
		} else {
			v = w.Get(jt.RightAttr)
		}
		switch v.Kind {
		case ops5.KindSym:
			h.Write([]byte("s:" + v.Sym))
		case ops5.KindNum:
			x := math.Float64bits(v.Num)
			if v.Num == 0 {
				x = 0 // -0 folds as +0
			}
			// splitmix64 finaliser
			x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
			x = (x ^ x>>27) * 0x94d049bb133111eb
			x ^= x >> 31
			h.Write([]byte("n:"))
			h.Write(le64(x))
		default:
			h.Write([]byte("_"))
		}
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// checkOwnerBit fails unless act's key has the byte-wise fold's bit 0.
func checkOwnerBit(t *testing.T, tab *rete.Table, act rete.Activation) {
	t.Helper()
	if got, want := act.HashKey(tab)&1, refHashKey(tab, act.Node, act.Side, act.Token, tab.WME(act.WME))&1; got != want {
		t.Fatalf("HashKey(%s node %d, %v) has owner bit %d, the byte-wise fold %d", act.Node.Kind, act.Node.ID, act.Side, got, want)
	}
}

// TestHashKeyOwnerBitMatchesFNV: the word fold deals W=2 ownership
// exactly as byte-wise FNV-1a did, over every kind of value — -0, nil,
// a huge number, symbols shorter than, as long as, just past and well
// past one word — and over every activation of a whole 8-queens run.
func TestHashKeyOwnerBitMatchesFNV(t *testing.T) {
	var prods []*ops5.Production
	for _, src := range []string{
		`(p join (a ^x <v> ^y <u>) (b ^x <v> ^z <u>) --> (halt))`,
		`(p nums (c ^n <m>) (d ^n <m>) --> (halt))`,
		`(p cross (a ^x <v>) (d ^q <r>) --> (halt))`,
	} {
		p, err := ops5.ParseProduction(src)
		if err != nil {
			t.Fatal(err)
		}
		prods = append(prods, p)
	}
	net, err := rete.Compile(prods)
	if err != nil {
		t.Fatal(err)
	}
	tab := rete.NewTable()
	proc := rete.NewProcessor(net, 64, tab)
	wmes := []*ops5.WME{
		ops5.NewWME("a", "x", "red", "y", 3),
		ops5.NewWME("a", "x", 2.5, "y", "blue"),
		ops5.NewWME("a", "x", math.Copysign(0, -1)), // ^y absent: the nil value
		ops5.NewWME("a", "x", "x", "y", "eightbyt"),
		ops5.NewWME("b", "x", "red", "z", 3),
		ops5.NewWME("b", "x", "ninebytes", "z", "twenty-seven-bytes-long-sym"),
		ops5.NewWME("c", "n", -17),
		ops5.NewWME("d", "n", -17, "q", "deep"),
		ops5.NewWME("d", "n", 1e300),
	}
	checked := 0
	for i, w := range wmes {
		w.ID, w.TimeTag = i+1, i+1
		ch := []rete.Change{{Tag: rete.Add, WME: w}}
		for _, act := range proc.RootActivationsInto(ch[0], tab.Handles(ch, nil)[0], nil) {
			checkOwnerBit(t, tab, act)
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no root activations generated")
	}

	prog, err := ops5.ParseProgram(workloads.Queens)
	if err != nil {
		t.Fatal(err)
	}
	c, err := engine.Compile(prog, engine.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	board, err := ops5.ParseWMEs(workloads.QueensWMEs(8))
	if err != nil {
		t.Fatal(err)
	}
	o := &ownerBitMatcher{t: t, tab: rete.NewTable()}
	o.proc = rete.NewProcessor(c.Network(), 0, o.tab)
	s := c.NewSession(engine.SessionOptions{Matcher: o})
	s.InsertWMEs(board...)
	fired, err := s.Run(100_000)
	if err != nil {
		t.Fatal(err)
	}
	if fired != 2033 || o.acts < 30_000 {
		t.Fatalf("8-queens fired %d times over %d activations, want 2033 over at least 30,000", fired, o.acts)
	}
}

// ownerBitMatcher is a FIFO sequential matcher over a Processor that
// checks the owner bit of every activation it performs.
type ownerBitMatcher struct {
	t    *testing.T
	tab  *rete.Table
	proc *rete.Processor
	acts int
}

func (o *ownerBitMatcher) Apply(changes []rete.Change) []rete.InstChange {
	o.tab.BeginPhase()
	o.proc.BeginPhase()
	var queue, prods []rete.Activation
	for i, h := range o.tab.Handles(changes, nil) {
		queue = o.proc.RootActivationsInto(changes[i], h, queue)
	}
	for len(queue) > 0 {
		act := queue[0]
		queue = queue[1:]
		if act.Node.Kind == rete.KindProduction {
			prods = append(prods, act)
			continue
		}
		checkOwnerBit(o.t, o.tab, act)
		o.acts++
		queue = o.proc.ProcessAt(act, o.proc.Bucket(act), queue)
	}
	return o.proc.Build(prods, nil)
}
