package rete

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"mpcrete/internal/ops5"
	"mpcrete/internal/wire"
)

// roundTripNetwork encodes and decodes a network.
func roundTripNetwork(t *testing.T, net *Network) *Network {
	t.Helper()
	got, err := DecodeNetwork(AppendNetwork(nil, net))
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestNetworkCodecRoundTripStructure(t *testing.T) {
	net := compileT(t, sharedFanoutProds)
	got := roundTripNetwork(t, net)
	if a, b := net.Stats(), got.Stats(); a != b {
		t.Errorf("stats changed: %+v vs %+v", a, b)
	}
	if len(got.ProdOrder) != len(net.ProdOrder) {
		t.Fatalf("prod order = %v", got.ProdOrder)
	}
	for i, name := range net.ProdOrder {
		if got.ProdOrder[i] != name {
			t.Errorf("prod order[%d] = %q, want %q", i, got.ProdOrder[i], name)
		}
	}
	// VarDefs and TokenPos survive.
	for name, info := range net.Prods {
		gi := got.Prods[name]
		if gi == nil {
			t.Fatalf("missing production %s", name)
		}
		if len(gi.VarDefs) != len(info.VarDefs) {
			t.Errorf("%s: vardefs %v vs %v", name, gi.VarDefs, info.VarDefs)
		}
		// A decoded definition points into the decoded network's own
		// table: same class, same slot, another *Layout.
		for v, d := range info.VarDefs {
			g := gi.VarDefs[v]
			if g.OrigCE != d.OrigCE || g.Attr != d.Attr || g.ref.class() != d.ref.class() || g.ref.slot != d.ref.slot {
				t.Errorf("%s: vardef %s = %+v, want %+v", name, v, g, d)
			}
			if g.ref.layout != got.Layout(d.ref.class()) {
				t.Errorf("%s: vardef %s resolved outside the decoded table", name, v)
			}
		}
	}
	// Both ends number classes and slots alike.
	if len(got.Layouts()) != len(net.Layouts()) {
		t.Fatalf("layout table: %d layouts, want %d", len(got.Layouts()), len(net.Layouts()))
	}
	for i, l := range net.Layouts() {
		g := got.Layouts()[i]
		if g.ID() != i || g.Class() != l.Class() || !slices.Equal(g.Names(), l.Names()) {
			t.Errorf("layout %d = %s %v, want %s %v", i, g.Class(), g.Names(), l.Class(), l.Names())
		}
	}
}

func TestNetworkCodecPreservesMatching(t *testing.T) {
	wmes := fanoutWMEs()
	net := compileT(t, sharedFanoutProds)
	base := runConflictSet(t, net, wmes)

	// Decode a fresh copy (the original already holds token state from
	// nothing — networks are stateless; memories live in the matcher).
	got := roundTripNetwork(t, compileT(t, sharedFanoutProds))
	after := runConflictSet(t, got, wmes)
	if !conflictSetsEqual(base, after) {
		t.Errorf("decoded network diverged: %v vs %v", base, after)
	}
}

func TestNetworkCodecPreservesTransformations(t *testing.T) {
	wmes := fanoutWMEs()

	// Transformed network: unshare + dummies + copy-and-constraint on
	// a second cross-product production.
	srcs := append([]string{}, sharedFanoutProds...)
	srcs = append(srcs, `(p cross (a ^x <u>) (c ^k <w>) --> (halt))`)
	net := compileT(t, srcs)
	if _, err := net.Unshare(sharedJoin(t, net)); err != nil {
		t.Fatal(err)
	}
	var cross *Node
	for _, n := range net.Nodes {
		// The cross production's join: no tests at all (the c^k joins
		// of the shared productions also lack eq tests but are keyed
		// to constant-test alphas).
		if n.Kind == KindJoin && len(n.Tests) == 0 && n.Info == nil && len(n.Succs) == 1 && n.Succs[0].Info != nil && n.Succs[0].Info.Prod.Name == "cross" {
			cross = n
		}
	}
	if cross == nil {
		t.Fatal("no cross-product join")
	}
	if _, err := net.CopyAndConstrain(cross, 3); err != nil {
		t.Fatal(err)
	}

	base := runConflictSet(t, net, wmes)
	got := roundTripNetwork(t, net)
	// Copy-and-constraint state must survive: each copy accepts a
	// disjoint share of right wmes.
	var copies []*Node
	for _, n := range got.Nodes {
		if n.Kind == KindJoin && n.copyCount == 3 {
			copies = append(copies, n)
		}
	}
	if len(copies) != 3 {
		t.Fatalf("decoded copies = %d", len(copies))
	}
	for id := 0; id < 9; id++ {
		w := ops5.NewWME("c", "k", 1)
		w.ID = id
		accepts := 0
		for _, c := range copies {
			if c.AcceptsRight(w) {
				accepts++
			}
		}
		if accepts != 1 {
			t.Errorf("wme %d accepted by %d decoded copies", id, accepts)
		}
	}
	after := runConflictSet(t, got, wmes)
	if !conflictSetsEqual(base, after) {
		t.Errorf("decoded transformed network diverged (%d vs %d)", len(base), len(after))
	}
}

func TestNetworkCodecRandomizedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 15; trial++ {
		srcs := randomProductions(rng, 1+rng.Intn(4))
		net := compileT(t, srcs)
		got := roundTripNetwork(t, net)

		// Drive both with the same random wme stream.
		var wmes []*ops5.WME
		id := 1
		for i := 0; i < 30; i++ {
			w := ops5.NewWME([]string{"a", "b", "c"}[rng.Intn(3)], "x", rng.Intn(3), "y", rng.Intn(3))
			w.ID, w.TimeTag = id, id
			id++
			wmes = append(wmes, w)
		}
		base := runConflictSet(t, net, wmes)
		after := runConflictSet(t, got, wmes)
		if !conflictSetsEqual(base, after) {
			t.Fatalf("trial %d (%v): decoded network diverged", trial, srcs)
		}
	}
}

func TestNetworkCodecErrors(t *testing.T) {
	if _, err := DecodeNetwork(nil); !errors.Is(err, wire.ErrBadPayload) {
		t.Errorf("empty input: %v", err)
	}
	if _, err := DecodeNetwork([]byte("NOTMAGIC")); !errors.Is(err, wire.ErrBadPayload) {
		t.Errorf("bad magic: %v", err)
	}
	// Truncated stream.
	full := AppendNetwork(nil, compileT(t, sharedFanoutProds))
	for _, cut := range []int{len(netMagic) + 1, len(full) / 2, len(full) - 1} {
		if _, err := DecodeNetwork(full[:cut]); !errors.Is(err, wire.ErrBadPayload) {
			t.Errorf("truncation at %d: %v", cut, err)
		}
	}
}

// forgeNetwork writes a blob field by field behind the magic: an int is
// a uvarint (a count, an id, a size), an int64 a signed varint, a byte
// itself, a string its length and bytes.
func forgeNetwork(fields ...any) []byte {
	e := wire.Enc{Buf: []byte(netMagic)}
	for _, f := range fields {
		switch f := f.(type) {
		case int:
			e.Count(f)
		case int64:
			e.I64(f)
		case byte:
			e.Byte(f)
		case string:
			e.Str(f)
		}
	}
	return e.Buf
}

// TestNetworkCodecForged: a worker's handshake hands DecodeNetwork
// bytes from a socket, so what a blob declares may cost no more than
// what the blob is. Every row is refused with wire.ErrBadPayload after
// allocating under 1 MiB: a count larger than the payload at each
// counted collection of the format (each as large as the collection's
// fixed limit allows, so a decoder that bounds by constants only is
// found out; the offset is the blob's length, so the count named is the
// one refused), and the other ways a blob can lie about its own shape.
// "nodes" is the 16-byte blob that once bought 192 MiB.
func TestNetworkCodecForged(t *testing.T) {
	const prod = `(p x (a ^v 1) --> (halt))`
	sound := AppendNetwork(nil, compileT(t, []string{prod}))
	if _, err := DecodeNetwork(sound); err != nil {
		t.Fatal(err)
	}
	nodes16 := forgeNetwork(0, 0, 0, 0, 1<<22)
	if len(nodes16) != 16 {
		t.Fatalf("the nodes row is %d bytes, want the 16-byte blob", len(nodes16))
	}
	with := func(head []any, tail ...any) []byte { return forgeNetwork(append(slices.Clip(head), tail...)...) }
	// A join node's record up to its successor count, after a header of
	// no flags, productions, layouts or alphas and a node count of one.
	node := []any{0, 0, 0, 0, 1, byte(KindJoin), int64(-1), 0, 0, 0, 0, byte(0), 0, byte(0), int64(-1)}
	// One production, no layouts or alphas, its terminal node whole, and
	// the production's info up to its variable count.
	info := []any{0, 1, prod, 0, 0, 1, byte(KindProduction), int64(-1), 1, 1, 0, 0, byte(0), 0, byte(0), int64(-1), 0, 0, "x", "", 0}

	rows := []struct {
		name string
		blob []byte
		want string
	}{
		{"productions", forgeNetwork(0, 1<<20), "count 1048576 exceeds limit at offset 12"},
		{"layouts", forgeNetwork(0, 0, 1<<20), "count 1048576 exceeds limit at offset 13"},
		{"layout-names", forgeNetwork(0, 0, 1, "a", 1<<16), "count 65536 exceeds limit at offset 16"},
		{"alphas", forgeNetwork(0, 0, 0, 1<<20), "count 1048576 exceeds limit at offset 14"},
		{"const-tests", forgeNetwork(0, 0, 0, 1, "a", 1<<16), "count 65536 exceeds limit at offset 17"},
		{"disjuncts", forgeNetwork(0, 0, 0, 1, "a", 1, "v", byte(ops5.OpEq), 1<<16), "count 65536 exceeds limit at offset 21"},
		{"routes", forgeNetwork(0, 0, 0, 1, "a", 0, 1<<20), "count 1048576 exceeds limit at offset 18"},
		{"nodes", nodes16, "count 4194304 exceeds limit at offset 16"},
		{"successors", with(node, 1<<20), "count 1048576 exceeds limit at offset 26"},
		{"join-tests", with(node, 0, 1<<16), "count 65536 exceeds limit at offset 27"},
		{"variables", with(info, 1<<16), "count 65536 exceeds limit at offset 58"},
		{"token-positions", with(info, 0, 1<<16), "count 65536 exceeds limit at offset 59"},
		{"group-members", with(info, 0, 0, 1<<16), "count 65536 exceeds limit at offset 60"},
		{"truncated-string", forgeNetwork(0, 1, 100, byte('('), byte('p')), "count 100 exceeds limit at offset 11"},
		{"bool-of-2", with(node[:11], byte(2)), "bool at offset 20"},
		{"node-kind", with(node[:5], byte(KindBounded+1)), "node kind 5"},
		{"trailing-bytes", append(slices.Clip(sound), 0), "1 trailing bytes"},
		{"older-format", append([]byte("RETENET2"), sound[len(netMagic):]...), `bad network magic "RETENET2"`},
	}
	for _, row := range rows {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeNetwork(row.blob)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, wire.ErrBadPayload) || !strings.Contains(err.Error(), row.want) {
			t.Errorf("%s: DecodeNetwork returned %v, want ErrBadPayload saying %q", row.name, err, row.want)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Errorf("%s: refusing %d bytes allocated %d", row.name, len(row.blob), got)
		}
	}
}

// TestNetworkCodecLayoutTable: the layout table is what lets a wme
// cross the wire as a layout id and a run of values, so a blob whose
// table both ends could not number alike is refused whole — an older
// format that ships no table, a class or an attribute listed twice, or
// a table that lacks something the network mentions.
func TestNetworkCodecLayoutTable(t *testing.T) {
	net := compileT(t, []string{`(p p1 (aa ^xx 1 ^yy 2) (bb ^xx <v>) --> (make aa ^yy <v>))`})
	sound := AppendNetwork(nil, net)
	if _, err := DecodeNetwork(sound); err != nil {
		t.Fatal(err)
	}
	// The table as encoded: two layouts, aa = [xx yy] and bb = [xx],
	// every string behind its length.
	const table = "\x02" + "\x02aa\x02\x02xx\x02yy" + "\x02bb\x01\x02xx"
	if bytes.Count(sound, []byte(table)) != 1 {
		t.Fatalf("layout table not found in the encoding: %q", sound)
	}
	rows := []struct{ name, forged, want string }{
		{"older-format", "", "bad network magic \"RETENET2\""},
		{"class-twice", "\x02" + "\x02aa\x02\x02xx\x02yy" + "\x02aa\x01\x02xx", `names class "aa" twice`},
		{"attribute-twice", "\x02" + "\x02aa\x02\x02xx\x02xx" + "\x02bb\x01\x02xx", `names attribute "xx" twice`},
		{"attribute-missing", "\x02" + "\x02aa\x02\x02xx\x02zz" + "\x02bb\x01\x02xx", "its layout table lacks"},
		{"class-missing", "\x02" + "\x02aa\x02\x02xx\x02yy" + "\x02cc\x01\x02xx", "its layout table lacks"},
		{"layout-missing", "\x01" + "\x02aa\x02\x02xx\x02yy", "its layout table lacks"},
	}
	for _, row := range rows {
		blob := bytes.Replace(sound, []byte(table), []byte(row.forged), 1)
		if row.forged == "" {
			blob = append([]byte("RETENET2"), sound[len(netMagic):]...)
		}
		if _, err := DecodeNetwork(blob); !errors.Is(err, wire.ErrBadPayload) || !strings.Contains(err.Error(), row.want) {
			t.Errorf("%s: DecodeNetwork returned %v, want an error saying %q", row.name, err, row.want)
		}
	}
}

func TestNetworkCodecCompactness(t *testing.T) {
	// The point of the encoding: small per-node footprint. The
	// sharedFanoutProds network has 3 joins + 3 production nodes; the
	// whole serialized network (including production source) must stay
	// well under a message-passing node's 10-20KB local memory.
	if n := len(AppendNetwork(nil, compileT(t, sharedFanoutProds))); n > 4096 {
		t.Errorf("encoded network = %d bytes, want < 4096", n)
	}
}

func TestWriteDOT(t *testing.T) {
	net := compileT(t, sharedFanoutProds)
	var buf bytes.Buffer
	if err := WriteDOT(&buf, net); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"digraph rete", "shape=box", "doubleoctagon", "o1", "o2", "o3", "style=dashed"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q", want)
		}
	}
	// Detached nodes disappear from the picture.
	if err := net.Excise("o2"); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := WriteDOT(&buf, net); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "\"o2\"") {
		t.Error("excised production still rendered")
	}
	// Balanced braces make it at least superficially valid DOT.
	if strings.Count(buf.String(), "{") != strings.Count(buf.String(), "}") {
		t.Error("unbalanced braces")
	}
}
