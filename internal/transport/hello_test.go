package transport

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mpcrete/internal/engine"
	"mpcrete/internal/ops5"
	"mpcrete/internal/rete"
	"mpcrete/internal/wire"
	"mpcrete/internal/workloads"
)

// eachBundledNetwork compiles every bundled program as every variant.
func eachBundledNetwork(t testing.TB, each func(name, variant string, net *rete.Network)) {
	t.Helper()
	for _, name := range workloads.NamedNames() {
		wl, err := workloads.Named(name)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := ops5.ParseProgram(wl.Program)
		if err != nil {
			t.Fatal(err)
		}
		for _, variant := range rete.Variants() {
			net, err := rete.CompileVariant(prog.Productions, variant)
			if err != nil {
				t.Fatal(err)
			}
			each(name, variant, net)
		}
	}
}

// twoWorkerHello is the hello of worker 0 of a two-worker, four-bucket
// topology over net.
func twoWorkerHello(net *rete.Network) []byte {
	return helloBytes(hello{workers: 2, nbuckets: 4, partition: []int{0, 1, 0, 1}}, appendProgram(nil, net))
}

// TestHandshakeDigests: every bundled program, compiled as every
// variant, hands over — the worker compiles what the control holds,
// and its ready frame's digest says so.
func TestHandshakeDigests(t *testing.T) {
	eachBundledNetwork(t, func(name, variant string, network *rete.Network) {
		ctl, err := Listen(network, "127.0.0.1:0", ControlOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		werrs := startWorkers(t, ctl.Addr(), 1)
		if err := ctl.WaitWorkers(); err != nil {
			t.Errorf("%s/%s: %v", name, variant, err)
		}
		ctl.Close()
		if err := <-werrs; err != nil {
			t.Errorf("%s/%s: worker exit: %v", name, variant, err)
		}
	})
}

// TestHandshakeRefusesUnshippable: a network changed after compiling is
// not what its productions compile to, so a worker cannot build it from
// a hello. Listen takes such a network; WaitWorkers refuses the worker
// whose digest disagrees, as ErrBadPayload naming it, before any cycle
// could mis-join.
func TestHandshakeRefusesUnshippable(t *testing.T) {
	find := func(net *rete.Network, ok func(n *rete.Node) bool) *rete.Node {
		for _, n := range net.Nodes {
			if ok(n) {
				return n
			}
		}
		t.Fatal("no node to transform")
		return nil
	}
	for _, row := range []struct {
		name   string
		mutate func(net *rete.Network) error
	}{
		{"unshare", func(net *rete.Network) error {
			_, err := net.Unshare(find(net, func(n *rete.Node) bool { return n.IsTwoInput() && len(n.Succs) > 1 }))
			return err
		}},
		{"copy-and-constrain", func(net *rete.Network) error {
			_, err := net.CopyAndConstrain(find(net, func(n *rete.Node) bool { return n.Kind == rete.KindJoin }), 2)
			return err
		}},
		{"excise", func(net *rete.Network) error { return net.Excise(net.ProdOrder[0]) }},
	} {
		t.Run(row.name, func(t *testing.T) {
			network, _ := compileWorkload(t, "monkey")
			if err := row.mutate(network); err != nil {
				t.Fatal(err)
			}
			ctl, err := Listen(network, "127.0.0.1:0", ControlOptions{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			werrs := startWorkers(t, ctl.Addr(), 1)
			err = ctl.WaitWorkers()
			if !errors.Is(err, ErrBadPayload) || !strings.Contains(err.Error(), "worker 0") {
				t.Errorf("WaitWorkers returned %v, want ErrBadPayload naming worker 0", err)
			}
			ctl.Close()
			if err := <-werrs; err == nil {
				t.Error("the refused worker exited cleanly")
			}
		})
	}
}

// TestHelloErrors: a hello that is empty, cut short, asks for a ring
// capacity outside [0, maxRing], or whose program does not compile is
// refused as ErrBadPayload before the worker builds
// anything over it.
func TestHelloErrors(t *testing.T) {
	network, _ := compileWorkload(t, "blocks")
	sound := twoWorkerHello(network)
	if _, err := decodeHello(sound); err != nil {
		t.Fatal(err)
	}
	if _, err := decodeHello(helloBytes(hello{workers: 2, nbuckets: 4, ring: maxRing, partition: []int{0, 1, 0, 1}}, appendProgram(nil, network))); err != nil {
		t.Fatalf("a hello at the ring bound: %v", err)
	}
	src := network.Prods[network.ProdOrder[0]].Prod.String()
	program := func(srcs ...string) []byte {
		e := wire.Enc{}
		e.Str("shared")
		e.Count(len(srcs))
		for _, s := range srcs {
			e.Str(s)
		}
		return e.Buf
	}
	rows := map[string][]byte{
		"empty":                nil,
		"unparsable":           helloBytes(hello{workers: 1, nbuckets: 1, partition: []int{0}}, program("(p broken")),
		"duplicate-production": helloBytes(hello{workers: 1, nbuckets: 1, partition: []int{0}}, program(src, src)),
		"trailing-bytes":       append(bytes.Clone(sound), 0),
		"ring-over-bound":      helloBytes(hello{workers: 2, nbuckets: 4, ring: maxRing + 1, partition: []int{0, 1, 0, 1}}, appendProgram(nil, network)),
		"ring-negative":        helloBytes(hello{workers: 2, nbuckets: 4, ring: -1, partition: []int{0, 1, 0, 1}}, appendProgram(nil, network)),
	}
	for _, cut := range []int{1, len(sound) / 2, len(sound) - 1} {
		rows[fmt.Sprintf("truncated-at-%d", cut)] = sound[:cut]
	}
	for name, payload := range rows {
		if _, err := decodeHello(payload); !errors.Is(err, ErrBadPayload) {
			t.Errorf("%s: decodeHello returned %v, want ErrBadPayload", name, err)
		}
	}
}

// TestHelloForged: every count in a hello's program — the variant's
// length, the number of productions, each source's length — is held to
// the bytes that remain. A few bytes declaring four million productions
// or a megabyte of source are refused as ErrBadPayload at the offset of
// the lie, for what those bytes cost, not for what they ask for.
func TestHelloForged(t *testing.T) {
	h := hello{workers: 2, nbuckets: 4, partition: []int{0, 1, 0, 1}}
	head := len(helloBytes(h, nil))
	forged := func(fill func(e *wire.Enc)) []byte {
		e := wire.Enc{}
		e.Str("shared")
		fill(&e)
		return e.Buf
	}
	rows := []struct {
		name    string
		program []byte
		count   int // the forged count
		at      int // its end, from the start of the program
	}{
		{"variant", []byte{0x80, 0x80, 0x80, 0x02}, 1 << 22, 4},
		{"productions", forged(func(e *wire.Enc) { e.Count(1 << 22) }), 1 << 22, 11},
		{"productions-over-payload", forged(func(e *wire.Enc) { e.Count(1000); e.Raw([]byte("(p")) }), 1000, 9},
		{"source", forged(func(e *wire.Enc) { e.Count(1); e.Count(1 << 20); e.Raw([]byte("(p")) }), 1 << 20, 11},
		{"truncated-source", forged(func(e *wire.Enc) { e.Count(1); e.Count(100); e.Raw([]byte("(p")) }), 100, 9},
	}
	for _, row := range rows {
		want := fmt.Sprintf("count %d exceeds limit at offset %d", row.count, head+row.at)
		payload := helloBytes(h, row.program)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := decodeHello(payload)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrBadPayload) || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: decodeHello returned %v, want ErrBadPayload saying %q", row.name, err, want)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Errorf("%s: refusing %d bytes allocated %d", row.name, len(payload), got)
		}
	}
}

// TestHelloCompactness: what the handshake ships is the program's text,
// which for every bundled program stays well under the 10-20 Kbytes of
// local memory the paper gives a message-passing node.
func TestHelloCompactness(t *testing.T) {
	eachBundledNetwork(t, func(name, variant string, net *rete.Network) {
		n := len(twoWorkerHello(net))
		if n > 4096 {
			t.Errorf("%s/%s: hello is %d bytes, want under 4096", name, variant, n)
		}
		if name == "queens" && variant == "shared" {
			t.Logf("8-queens hello: %d bytes", n)
		}
	})
}

// FuzzHello: no bytes make the worker panic. A hello the worker takes
// it answers with the digest of the network it compiled, and printing
// that network's program and compiling it again gives the same digest;
// one it does not take ends ServeConn with ErrBadPayload.
func FuzzHello(f *testing.F) {
	eachBundledNetwork(f, func(_, _ string, net *rete.Network) { f.Add(twoWorkerHello(net)) })
	f.Fuzz(func(t *testing.T, payload []byte) {
		if len(payload) > MaxFrame-1 {
			return
		}
		h, decodeErr := decodeHello(payload)
		ctl, wrk := net.Pipe()
		defer ctl.Close()
		served := make(chan error, 1)
		go func() { served <- ServeConn(wrk) }()
		go writeFrame(ctl, ftHello, payload)
		ft, ready, err := readFrame(ctl)
		if decodeErr != nil {
			if err == nil {
				t.Fatalf("worker answered %s to a hello decodeHello refuses (%v)", ft, decodeErr)
			}
			if err := <-served; !errors.Is(err, ErrBadPayload) {
				t.Fatalf("worker returned %v, want ErrBadPayload", err)
			}
			return
		}
		if err != nil || ft != ftReady {
			t.Fatalf("worker answered %v, %v to a hello decodeHello takes", ft, err)
		}
		d := wire.Dec{B: ready}
		if id, digest := d.Int(), d.U64(); d.Done() != nil || id != h.id || digest != h.net.Digest() {
			t.Fatalf("ready frame %x, want id %d and digest %#x", ready, h.id, h.net.Digest())
		}
		// Past the cache: the printed program is the one decodeHello
		// just cached.
		again, err := compileProgram(&dec{Dec: wire.Dec{B: appendProgram(nil, h.net)}})
		if err != nil || again.Digest() != h.net.Digest() {
			t.Fatalf("the program printed from the compiled network compiles to another (%v)", err)
		}
		go writeFrame(ctl, ftShutdown, nil)
		select {
		case err := <-served:
			if err != nil {
				t.Fatalf("worker shutdown: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("worker ignored shutdown")
		}
	})
}

// readyOf hands a ServeConn worker the hello payload over a pipe and
// returns the id and digest of its ready frame, then shuts it down.
func readyOf(t *testing.T, payload []byte) (int, uint64) {
	t.Helper()
	ctl, wrk := net.Pipe()
	defer ctl.Close()
	served := make(chan error, 1)
	go func() { served <- ServeConn(wrk) }()
	go writeFrame(ctl, ftHello, payload)
	ft, ready, err := readFrame(ctl)
	if err != nil || ft != ftReady {
		t.Fatalf("worker answered %v, %v to its hello", ft, err)
	}
	d := wire.Dec{B: ready}
	id, digest := d.Int(), d.U64()
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	go writeFrame(ctl, ftShutdown, nil)
	if err := <-served; err != nil {
		t.Fatalf("worker shutdown: %v", err)
	}
	return id, digest
}

// programOf parses a bundled workload's productions.
func programOf(t *testing.T, name string) []*ops5.Production {
	t.Helper()
	wl, err := workloads.Named(name)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ops5.ParseProgram(wl.Program)
	if err != nil {
		t.Fatal(err)
	}
	return prog.Productions
}

// TestHelloCacheSharesNetwork: the workers of one process handed one
// program compile it once. Their hellos, decoded together on a cold
// cache, give one network, and each worker's ready frame carries its
// digest.
func TestHelloCacheSharesNetwork(t *testing.T) {
	blocks, _ := compileWorkload(t, "blocks")
	network, _ := compileWorkload(t, "monkey")
	if _, err := decodeHello(twoWorkerHello(blocks)); err != nil {
		t.Fatal(err)
	}
	var hellos [2][]byte
	var nets [2]*rete.Network
	var wg sync.WaitGroup
	for id := range hellos {
		hellos[id] = helloBytes(hello{id: id, workers: 2, nbuckets: 4, partition: []int{0, 1, 0, 1}}, appendProgram(nil, network))
		wg.Add(1)
		go func() {
			defer wg.Done()
			h, err := decodeHello(hellos[id])
			if err != nil {
				t.Error(err)
			}
			nets[id] = h.net
		}()
	}
	wg.Wait()
	if nets[0] == nil || nets[0] != nets[1] {
		t.Fatalf("the workers' hellos compiled to %p and %p, want one network", nets[0], nets[1])
	}
	for id, payload := range hellos {
		if gotID, digest := readyOf(t, payload); gotID != id || digest != network.Digest() {
			t.Errorf("worker %d answered id %d, digest %#x; want %d, %#x", id, gotID, digest, id, network.Digest())
		}
	}
}

// TestHelloCacheMisses: the cache holds one program, keyed by its
// exact bytes. Another program, or the same productions as another
// variant, compiles its own network; the first program then compiles
// again, to a network with its old digest, which the next hello of it
// reuses.
func TestHelloCacheMisses(t *testing.T) {
	blocksProds := programOf(t, "blocks")
	shared, err := rete.CompileVariant(blocksProds, "shared")
	if err != nil {
		t.Fatal(err)
	}
	bounded, err := rete.CompileVariant(blocksProds, "bounded")
	if err != nil {
		t.Fatal(err)
	}
	monkey, _ := compileWorkload(t, "monkey")
	decode := func(want *rete.Network) *rete.Network {
		t.Helper()
		h, err := decodeHello(twoWorkerHello(want))
		if err != nil {
			t.Fatal(err)
		}
		if h.net.Variant() != want.Variant() || h.net.Digest() != want.Digest() {
			t.Fatalf("a hello of a %s network of digest %#x compiled to %s, %#x", want.Variant(), want.Digest(), h.net.Variant(), h.net.Digest())
		}
		return h.net
	}
	a := decode(shared)
	if decode(shared) != a {
		t.Error("the same program compiled twice in a row")
	}
	if decode(monkey) == a {
		t.Error("another program reused blocks' network")
	}
	if decode(bounded) == a {
		t.Error("blocks as bounded reused blocks' shared network")
	}
	again := decode(shared)
	if again == a {
		t.Error("blocks' network outlived two other programs in a one-entry cache")
	}
	if decode(shared) != again {
		t.Error("blocks compiled again right after it was cached")
	}
}

// TestHelloCacheTranscripts: sessions of A, then B, then A twice — the
// first two of A compiled by their workers, the last taken from the
// cache — each fire as the sequential engine does.
func TestHelloCacheTranscripts(t *testing.T) {
	for _, name := range []string{"blocks", "monkey", "blocks", "blocks"} {
		wl, err := workloads.Named(name)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := ops5.ParseProgram(wl.Program)
		if err != nil {
			t.Fatal(err)
		}
		c, err := engine.Compile(prog, engine.CompileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		run := func(opts engine.SessionOptions) string {
			var out strings.Builder
			opts.Output, opts.Watch = &out, 1
			wmes, err := ops5.ParseWMEs(wl.WMEs)
			if err != nil {
				t.Fatal(err)
			}
			s := c.NewSession(opts)
			s.InsertWMEs(wmes...)
			if _, err := s.Run(100_000); err != nil {
				t.Fatal(err)
			}
			return out.String()
		}
		want := run(engine.SessionOptions{})
		ctl, err := Listen(c.Network(), "127.0.0.1:0", ControlOptions{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		werrs := startWorkers(t, ctl.Addr(), 2)
		if err := ctl.WaitWorkers(); err != nil {
			t.Fatal(err)
		}
		got := run(engine.SessionOptions{Matcher: ctl})
		ctl.Close()
		for range 2 {
			if err := <-werrs; err != nil {
				t.Fatalf("%s: worker exit: %v", name, err)
			}
		}
		if got != want {
			t.Errorf("%s over the star fired\n%s\nwant\n%s", name, got, want)
		}
	}
}

// TestHelloCacheRefusals: a hello the worker refuses — source that
// does not parse, a variant the compiler does not know — is never
// cached: the same bytes are refused again, and the program cached
// before it stays.
func TestHelloCacheRefusals(t *testing.T) {
	network, _ := compileWorkload(t, "blocks")
	h, err := decodeHello(twoWorkerHello(network))
	if err != nil {
		t.Fatal(err)
	}
	src := network.Prods[network.ProdOrder[0]].Prod.String()
	program := func(variant, src string) []byte {
		e := wire.Enc{}
		e.Str(variant)
		e.Count(1)
		e.Str(src)
		return e.Buf
	}
	for name, prog := range map[string][]byte{
		"unparsable":      program("shared", "(p broken"),
		"unknown-variant": program("no-such-variant", src),
	} {
		payload := helloBytes(hello{workers: 1, nbuckets: 1, partition: []int{0}}, prog)
		for i := range 2 {
			if _, err := decodeHello(payload); !errors.Is(err, ErrBadPayload) {
				t.Errorf("%s, decoded %d times: %v, want ErrBadPayload", name, i+1, err)
			}
		}
		helloCache.Lock()
		if helloCache.net != h.net || !bytes.Equal(helloCache.program, appendProgram(nil, network)) {
			t.Errorf("%s: the refused hello displaced the cached program", name)
		}
		helloCache.Unlock()
	}
}

// TestControlPrintsOncePerDigest: Controls over one network ship one
// printing of its program; once the network is transformed (Unshare)
// its digest changes, and the next Control prints it again.
func TestControlPrintsOncePerDigest(t *testing.T) {
	network, _ := compileWorkload(t, "monkey")
	listen := func() *Control {
		t.Helper()
		ctl, err := Listen(network, "127.0.0.1:0", ControlOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		ctl.Close()
		return ctl
	}
	first, second := listen(), listen()
	if &first.program[0] != &second.program[0] {
		t.Error("a second Control printed an unchanged network's program again")
	}
	var shared *rete.Node
	for _, n := range network.Nodes {
		if n.IsTwoInput() && len(n.Succs) > 1 {
			shared = n
			break
		}
	}
	if _, err := network.Unshare(shared); err != nil {
		t.Fatal(err)
	}
	third := listen()
	if third.digest == first.digest || third.digest != network.Digest() {
		t.Fatalf("digest %#x after Unshare, %#x before, network's %#x", third.digest, first.digest, network.Digest())
	}
	if &third.program[0] == &first.program[0] {
		t.Error("a Control over the transformed network shipped the printing made before the transformation")
	}
}
