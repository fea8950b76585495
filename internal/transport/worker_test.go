package transport

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os/exec"
	"runtime"
	"strings"
	"testing"
	"time"

	"mpcrete/internal/ops5"
	"mpcrete/internal/parallel"
	"mpcrete/internal/rete"
	"mpcrete/internal/sched"
	"mpcrete/internal/wire"
	"mpcrete/internal/workloads"
)

// The topology the fault tests handshake: small enough that an index
// of 1<<20 is far outside it.
const (
	faultBuckets = 8
	faultWorkers = 2
)

// serveFault handshakes a worker over a pipe as the control process of
// a faultBuckets x faultWorkers topology would, sends it the frames,
// and returns what ServeConn returned. The worker's own frames are
// discarded.
func serveFault(t *testing.T, network *rete.Network, frames ...wireFrame) error {
	t.Helper()
	ctl, wrk := net.Pipe()
	defer ctl.Close()
	served := make(chan error, 1)
	go func() { served <- ServeConn(wrk) }()

	part := sched.RoundRobin(faultBuckets, faultWorkers)
	hb := helloBytes(hello{workers: faultWorkers, nbuckets: faultBuckets, partition: part}, appendProgram(nil, network))
	if err := writeFrame(ctl, ftHello, hb); err != nil {
		t.Fatal(err)
	}
	if ft, _, err := readFrame(ctl); err != nil || ft != ftReady {
		t.Fatalf("handshake: ft=%v err=%v", ft, err)
	}
	go io.Copy(io.Discard, ctl)
	for _, f := range frames {
		if err := f.writeTo(ctl, network.Layouts()); err != nil {
			break // the worker has already hung up on an earlier frame
		}
	}
	select {
	case err := <-served:
		return err
	case <-time.After(5 * time.Second):
		t.Fatal("worker accepted the frames")
		return nil
	}
}

// serveHello hands a worker the hello payload over a pipe and returns
// what ServeConn returned: a worker that takes the hello answers ready
// and waits for frames, which fails the test.
func serveHello(t *testing.T, payload []byte) error {
	t.Helper()
	ctl, wrk := net.Pipe()
	defer ctl.Close()
	served := make(chan error, 1)
	go func() { served <- ServeConn(wrk) }()
	go io.Copy(io.Discard, ctl)
	if err := writeFrame(ctl, ftHello, payload); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-served:
		return err
	case <-time.After(5 * time.Second):
		t.Fatal("worker accepted the hello")
		return nil
	}
}

// TestBucketCountNotPowerOfTwo: a hash key picks its bucket by mask, so
// rete.NewMemory panics on three buckets — a programming error there,
// and an ordinary one at each door a bucket count comes in by: the
// runtime's options, a hello off the wire, the command line.
func TestBucketCountNotPowerOfTwo(t *testing.T) {
	network, _ := compileWorkload(t, "blocks")
	rows := []struct {
		name string
		door func(t *testing.T) error
		want error // nil: any error
	}{
		{"parallel.New", func(*testing.T) error {
			rt, err := parallel.New(network, parallel.Options{Workers: 2, NBuckets: 3})
			if err == nil {
				rt.Close()
			}
			return err
		}, nil},
		{"hello", func(t *testing.T) error {
			return serveHello(t, helloBytes(hello{workers: 2, nbuckets: 3, partition: []int{0, 1, 0}}, appendProgram(nil, network)))
		}, ErrBadPayload},
		{"ops5run -buckets", func(t *testing.T) error {
			if testing.Short() {
				t.Skip("spawns a subprocess")
			}
			out, err := exec.Command("go", "run", "mpcrete/cmd/ops5run", "-workload", "queens", "-buckets", "3").CombinedOutput()
			if bytes.Contains(out, []byte("panic")) || !bytes.Contains(out, []byte("not a power of two")) {
				t.Errorf("ops5run does not say why it stopped:\n%s", out)
			}
			return err
		}, nil},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			if err := row.door(t); err == nil || (row.want != nil && !errors.Is(err, row.want)) {
				t.Fatalf("three buckets: got %v, want an error (%v)", err, row.want)
			}
		})
	}
}

// TestWorkerRefusesForgedNetwork: the program in a hello is read by the
// same bounded decoder as the rest of the payload (TestHelloForged holds
// it to each count). A few bytes declaring four million productions are
// refused as ErrBadPayload for what those bytes cost (the handshake's
// own buffers included), not for what the declaration asks for.
func TestWorkerRefusesForgedNetwork(t *testing.T) {
	var program wire.Enc
	program.Str("shared")
	program.Count(1 << 22) // productions
	hb := helloBytes(hello{workers: 2, nbuckets: 4, partition: []int{0, 1, 0, 1}}, program.Buf)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := serveHello(t, hb)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrBadPayload) || !strings.Contains(err.Error(), "count 4194304") {
		t.Fatalf("worker returned %v, want ErrBadPayload naming the production count", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("refusing a %d-byte program allocated %d bytes", len(program.Buf), got)
	}
}

// stamped is a delivery frame: body behind the causal stamp every
// control→worker delivery opens with (batch 1, from the control).
func stamped(ft frameType, body func(e *enc)) wireFrame {
	return wireFrame{ft, func(e *enc) {
		e.I32(1) // batch
		e.I32(faultWorkers)
		body(e)
	}}
}

// TestWorkerRejectsBadIndices sends a worker one frame of each type
// that carries a bucket or worker index, with the index out of range
// for the handshaken topology (8 buckets, 2 workers). The worker must
// return ErrBadPayload — not index its memories or its per-destination
// buffers with the wire's number and panic.
func TestWorkerRejectsBadIndices(t *testing.T) {
	const badBucket = 1 << 20
	network, _ := compileWorkload(t, "blocks")
	act := rightAct(network)
	part := sched.RoundRobin(faultBuckets, faultWorkers)

	rows := []struct {
		name  string
		frame wireFrame
	}{
		{"acts-bucket", stamped(ftActs, func(e *enc) {
			e.actList([]parallel.Message{{Bucket: badBucket, Depth: 1, Act: act}})
		})},
		{"repart-bucket", stamped(ftRepart, func(e *enc) {
			e.partition(part)
			e.moves([]parallel.BucketMove{{Bucket: badBucket, NewOwner: 1}})
		})},
		{"repart-destination", stamped(ftRepart, func(e *enc) {
			e.partition(part)
			e.moves([]parallel.BucketMove{{Bucket: 3, NewOwner: faultWorkers + 5}})
		})},
		{"repart-partition-owner", stamped(ftRepart, func(e *enc) {
			bad := append(sched.Partition(nil), part...)
			bad[2] = faultWorkers
			e.partition(bad)
			e.moves(nil)
		})},
		{"bucket", stamped(ftBucket, func(e *enc) {
			e.bucketContents(&rete.BucketContents{
				Bucket:     badBucket,
				RightNodes: []*rete.Node{act.Node},
				RightWMEs:  []int32{act.WME},
			})
		})},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			if err := serveFault(t, network, row.frame); !errors.Is(err, ErrBadPayload) {
				t.Fatalf("worker returned %v, want ErrBadPayload", err)
			}
		})
	}
}

// wmeFaults are the ways a wme position can lie about the receiver's
// table. Each encodes one position on a stream whose receiver holds w
// at handle h; none may decode to a wme.
var wmeFaults = []struct {
	name string
	bad  func(e *enc, h int32, w *ops5.WME)
	why  string // what a worker's decoder must say (TestDefinitionFaults holds it to it)
}{
	{"ref-empty-slot", func(e *enc, h int32, w *ops5.WME) { wireRef(e, h+1, w.TimeTag) }, "names nothing the stream defined"},
	// A handle sharing w's low bits, as an id did a slot of the retired
	// direct-mapped cache: never defined.
	{"ref-aliased-id", func(e *enc, h int32, w *ops5.WME) { wireRef(e, h+4096, w.TimeTag) }, "names nothing the stream defined"},
	{"ref-wrong-timetag", func(e *enc, h int32, w *ops5.WME) { wireRef(e, h, w.TimeTag+1) }, "names nothing the stream defined"},
	{"ref-handle-zero", func(e *enc, h int32, w *ops5.WME) { wireRef(e, 0, w.TimeTag) }, "wme handle 0"},
	{"ref-past-mirror-bound", func(e *enc, h int32, w *ops5.WME) { wireRef(e, mirrorMax, w.TimeTag) }, "wme handle 1048576 out of range"},
	{"def-past-mirror-bound", func(e *enc, h int32, w *ops5.WME) {
		forgeDef(e, mirrorMax, w, blockRef(e), "", []ops5.Value{ops5.S("b1")})
	}, "wme handle 1048576 out of range"},
	{"unknown-form", func(e *enc, h int32, w *ops5.WME) { e.Byte(wmeRef + 1) }, "wme form 3"},

	// The ways a definition can lie about the layout table. w is a
	// block, whose layout keeps name, clear and on.
	{"def-layout-outside-table", func(e *enc, h int32, w *ops5.WME) {
		forgeDef(e, h, w, uint64(len(e.layouts))+1, "", nil)
	}, `layout id 3 outside the table of 3`},
	{"def-more-slots-than-layout", func(e *enc, h int32, w *ops5.WME) {
		forgeDef(e, h, w, blockRef(e), "", []ops5.Value{ops5.S("b1"), {}, {}, ops5.S("overflow")})
	}, `4 slots in a definition of class "block", whose layout has 3`},
	{"def-extras-out-of-order", func(e *enc, h int32, w *ops5.WME) {
		forgeDef(e, h, w, blockRef(e), "", []ops5.Value{ops5.S("b1")}, ops5.Attr{Name: "zz", Value: ops5.N(1)}, ops5.Attr{Name: "aa", Value: ops5.N(2)})
	}, `"aa" of class "block" is out of order after zz`},
	{"def-extra-twice", func(e *enc, h int32, w *ops5.WME) {
		forgeDef(e, h, w, blockRef(e), "", []ops5.Value{ops5.S("b1")}, ops5.Attr{Name: "aa", Value: ops5.N(1)}, ops5.Attr{Name: "aa", Value: ops5.N(2)})
	}, `"aa" of class "block" is out of order after aa`},
	{"def-extra-names-slotted-attribute", func(e *enc, h int32, w *ops5.WME) {
		forgeDef(e, h, w, blockRef(e), "", nil, ops5.Attr{Name: "name", Value: ops5.S("b1")})
	}, `"name" of class "block" has a slot in the layout`},
	{"def-extra-nil", func(e *enc, h int32, w *ops5.WME) {
		forgeDef(e, h, w, blockRef(e), "", []ops5.Value{ops5.S("b1")}, ops5.Attr{Name: "note"})
	}, `"note" of class "block" is nil`},
	{"def-by-name-of-laid-out-class", func(e *enc, h int32, w *ops5.WME) {
		forgeDef(e, h, w, 0, "block", nil, ops5.Attr{Name: "name", Value: ops5.S("b1")})
	}, `class "block" defined by name, but layout 1 is its`},
}

// forgeDef writes a definition field by field, as enc.def lays it out:
// handle, identity, class reference (0 and a name, or layout id + 1),
// the leading slots, the extras.
func forgeDef(e *enc, h int32, w *ops5.WME, classRef uint64, className string, slots []ops5.Value, extras ...ops5.Attr) {
	e.Byte(wmeDef)
	e.Int(int(h))
	e.Int(w.ID)
	e.Int(w.TimeTag)
	e.U64(classRef)
	if classRef == 0 {
		e.Str(className)
	}
	e.Count(len(slots))
	for _, v := range slots {
		e.Value(v)
	}
	e.Count(len(extras))
	for _, a := range extras {
		e.Str(a.Name)
		e.Value(a.Value)
	}
}

// blockRef is the class reference of block in the encoder's table.
func blockRef(e *enc) uint64 { return uint64(layoutOf(e.layouts, "block").ID()) + 1 }

// widerNetwork compiles the blocks workload with one more production,
// which names a class the plain network has no layout for, and returns
// it with a wme of that class: a definition of it by layout id is sound
// between two processes that hold the wider network and names nothing
// in the table of one that holds the plain one.
func widerNetwork(t *testing.T) (*rete.Network, *ops5.WME) {
	t.Helper()
	wl, err := workloads.Named("blocks")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ops5.ParseProgram(wl.Program + "\n(p wider (crate ^id <i>) --> (halt))\n")
	if err != nil {
		t.Fatal(err)
	}
	wider, err := rete.Compile(prog.Productions)
	if err != nil {
		t.Fatal(err)
	}
	w := wider.Conform(ops5.NewWME("crate", "id", 1))
	w.ID, w.TimeTag = 6, 10
	return wider, w
}

// bucketWithDef encodes bucket contents whose one right wme is w at
// handle faultHandle, defined as an encoder holding table would.
func bucketWithDef(e *enc, table []*ops5.Layout, node *rete.Node, w *ops5.WME) {
	own, tab := e.layouts, e.tab
	e.layouts, e.tab = table, rete.NewTable()
	e.tab.Define(faultHandle, w)
	e.bucketContents(&rete.BucketContents{Bucket: 3, RightNodes: []*rete.Node{node}, RightWMEs: []int32{faultHandle}})
	e.layouts, e.tab = own, tab
}

func wireRef(e *enc, h int32, tag int) {
	e.Byte(wmeRef)
	e.Int(int(h))
	e.Int(tag)
}

// faultHandle is the handle the fault frames define faultWME at;
// probeHandle is rightAct's wme's.
const (
	faultHandle int32 = 1
	probeHandle int32 = 2
)

// faultWME is the wme the fault frames define before they lie about
// it.
func faultWME() *ops5.WME {
	w := ops5.NewWME("block", "name", "b1")
	w.ID, w.TimeTag = 5, 9
	return w
}

// fixtureTable is the table a forger's encoder names wmes by:
// faultWME at faultHandle and rightAct's probe at probeHandle.
func fixtureTable() *rete.Table {
	tab := rete.NewTable()
	tab.Define(faultHandle, faultWME())
	tab.Define(probeHandle, probeWME())
	return tab
}

// faultChanges encodes a two-change list: w added by definition at
// faultHandle, then deleted through the position under test.
func faultChanges(e *enc, w *ops5.WME, second func(e *enc, h int32, w *ops5.WME)) {
	e.Count(2)
	e.Byte(byte(rete.Add))
	e.def(faultHandle, w)
	e.Byte(byte(rete.Delete))
	second(e, faultHandle, w)
}

// bucketWith encodes bucket contents whose one right wme is the
// position pos writes for w at faultHandle.
func bucketWith(e *enc, node *rete.Node, w *ops5.WME, pos func(e *enc, h int32, w *ops5.WME)) {
	e.Int(3) // bucket
	e.Count(0)
	e.Count(1)
	e.Int(node.ID)
	pos(e, faultHandle, w)
}

// exactRef is the reference to w at h that a sound stream sends.
func exactRef(e *enc, h int32, w *ops5.WME) { wireRef(e, h, w.TimeTag) }

// TestWorkerRejectsBadReferences: a forged or desynchronised wme
// reference reaching a worker — to a handle nothing was defined at, to
// the right handle under another time tag, to handle 0 or one past the
// mirror's bound, or an unknown form byte — ends ServeConn with
// ErrBadPayload. The control sequence first proves the stream is live:
// the same frame with an exact reference is accepted.
func TestWorkerRejectsBadReferences(t *testing.T) {
	network, _ := compileWorkload(t, "blocks")
	w := faultWME()
	cycle := func(second func(e *enc, h int32, w *ops5.WME)) wireFrame {
		return stamped(ftCycle, func(e *enc) { faultChanges(e, w, second) })
	}
	exact := cycle(exactRef)
	shutdown := wireFrame{ftShutdown, func(*enc) {}}
	if err := serveFault(t, network, exact, exact, shutdown); err != nil {
		t.Fatalf("exact references refused: %v", err)
	}
	for _, row := range wmeFaults {
		t.Run(row.name, func(t *testing.T) {
			if err := serveFault(t, network, cycle(row.bad), shutdown); !errors.Is(err, ErrBadPayload) {
				t.Fatalf("worker returned %v, want ErrBadPayload", err)
			}
		})
	}
	// A bucket's references are held to the same rule as every frame's:
	// after the cycle that defined w, an exact reference to it in a
	// migrated bucket is accepted, and each lie is refused.
	node := rightAct(network).Node
	bucket := func(pos func(e *enc, h int32, w *ops5.WME)) wireFrame {
		return stamped(ftBucket, func(e *enc) { bucketWith(e, node, w, pos) })
	}
	if err := serveFault(t, network, exact, bucket(exactRef), shutdown); err != nil {
		t.Fatalf("exact reference in a bucket refused: %v", err)
	}
	t.Run("ref-in-bucket", func(t *testing.T) {
		for _, row := range wmeFaults {
			t.Run(row.name, func(t *testing.T) {
				if err := serveFault(t, network, exact, bucket(row.bad), shutdown); !errors.Is(err, ErrBadPayload) {
					t.Fatalf("worker returned %v, want ErrBadPayload", err)
				}
			})
		}
	})
	// A migrated bucket from a process that holds another network: the
	// same frame is accepted with a wme this network can lay out, and
	// refused when its definition names a layout this network lacks.
	wider, crate := widerNetwork(t)
	bucketOf := func(table []*ops5.Layout, w *ops5.WME) wireFrame {
		return stamped(ftBucket, func(e *enc) { bucketWithDef(e, table, node, w) })
	}
	if err := serveFault(t, network, bucketOf(network.Layouts(), w), shutdown); err != nil {
		t.Fatalf("sound bucket refused: %v", err)
	}
	t.Run("def-in-bucket-of-another-network", func(t *testing.T) {
		if err := serveFault(t, network, bucketOf(wider.Layouts(), crate), shutdown); !errors.Is(err, ErrBadPayload) {
			t.Fatalf("worker returned %v, want ErrBadPayload", err)
		}
	})
}
