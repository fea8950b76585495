package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

// buildRecorder assembles the fixture run used by the golden and
// validity tests: one cycle in which the control broadcasts to its one
// worker, which handles one activation.
func buildRecorder() *CausalRecorder {
	c := NewCausalRecorder(2, 16, 0, 8)
	c.SetTrackName(0, "match 0")
	c.SetTrackName(1, "control")
	w, ctl := c.Track(0), c.Track(1)
	c.BeginCycle(1, 0)
	ctl.Mark(EvTurnBegin, 0, 1, 0, 0)
	b := c.NextBatch()
	ctl.Send(1500, 1, b, BroadcastDst, 1)
	ctl.Mark(EvTurnEnd, 1500, 1, 0, 0)
	w.Recv(2000, 1, b, 1, 1)
	w.Mark(EvTurnBegin, 2000, 1, 0, 0)
	w.Handle(2000, 1, 3, 1, 0)
	w.Mark(EvTurnEnd, 34000, 1, 1, 1)
	c.EndCycle(1, 34000)
	return c
}

const goldenTrace = `{"traceEvents":[
{"name":"process_name","ph":"M","pid":0,"args":{"name":"mpcrete-causal"}},
{"name":"thread_name","ph":"M","pid":0,"tid":0,"args":{"name":"match 0"}},
{"name":"thread_name","ph":"M","pid":0,"tid":1,"args":{"name":"control"}},
{"name":"cycle","cat":"causal","ph":"X","ts":0.000,"dur":34.000,"pid":0,"tid":1,"args":{"seq":4,"cycle":1,"batch":0,"bucket":-3,"depth":0,"count":0}},
{"name":"turn","cat":"causal","ph":"X","ts":0.000,"dur":1.500,"pid":0,"tid":1,"args":{"seq":3,"cycle":1,"batch":0,"bucket":-3,"depth":0,"count":0}},
{"name":"send","cat":"causal","ph":"X","ts":1.500,"dur":0.000,"pid":0,"tid":1,"args":{"seq":2,"cycle":1,"batch":1,"bucket":-3,"depth":0,"count":1}},
{"name":"batch","cat":"flow","ph":"s","id":1,"ts":1.500,"pid":0,"tid":1},
{"name":"recv","cat":"causal","ph":"X","ts":2.000,"dur":0.000,"pid":0,"tid":0,"args":{"seq":0,"cycle":1,"batch":1,"bucket":-3,"depth":0,"count":1}},
{"name":"turn","cat":"causal","ph":"X","ts":2.000,"dur":32.000,"pid":0,"tid":0,"args":{"seq":3,"cycle":1,"batch":0,"bucket":-3,"depth":1,"count":1}},
{"name":"handle","cat":"causal","ph":"X","ts":2.000,"dur":0.000,"pid":0,"tid":0,"args":{"seq":2,"cycle":1,"batch":0,"bucket":3,"depth":1,"count":0}},
{"name":"batch","cat":"flow","ph":"f","bp":"e","id":1,"ts":2.000,"pid":0,"tid":0}
],"displayTimeUnit":"ms"}
`

// TestChromeTraceGolden pins the exporter's exact bytes: field order,
// timestamp formatting, event ordering, interval pairing, flow ids and
// track naming are all part of the contract (timeline files must be
// reproducible).
func TestChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := buildRecorder().Dump().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != goldenTrace {
		t.Errorf("golden mismatch:\n--- got ---\n%s--- want ---\n%s", got, goldenTrace)
	}
}

// TestChromeTraceValid parses the export as JSON and checks the
// trace-event schema: known phases, pid/tid present where required,
// and monotonically non-decreasing timestamps.
func TestChromeTraceValid(t *testing.T) {
	var buf bytes.Buffer
	if err := buildRecorder().Dump().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no events")
	}
	lastTS := -1.0
	for i, e := range doc.TraceEvents {
		ph, _ := e["ph"].(string)
		switch ph {
		case "M":
			continue
		case "X", "s", "f":
		default:
			t.Fatalf("event %d: unknown phase %q", i, ph)
		}
		if _, ok := e["pid"].(float64); !ok {
			t.Errorf("event %d: missing pid", i)
		}
		if _, ok := e["tid"].(float64); !ok {
			t.Errorf("event %d: missing tid", i)
		}
		ts, ok := e["ts"].(float64)
		if !ok {
			t.Fatalf("event %d: missing ts", i)
		}
		if ts < lastTS {
			t.Errorf("event %d: ts %v < previous %v (not monotonic)", i, ts, lastTS)
		}
		lastTS = ts
		if ph == "X" {
			if d, ok := e["dur"].(float64); !ok || d < 0 {
				t.Errorf("event %d: bad dur %v", i, e["dur"])
			}
		}
	}
}

// TestNilRecorder pins that a run without a recorder still exports: a
// nil recorder records nothing, its dump is nil, and the nil dump's
// Chrome trace and JSON are valid documents with no events.
func TestNilRecorder(t *testing.T) {
	var c *CausalRecorder
	c.BeginCycle(1, 0)
	c.Track(0).Send(0, 1, c.NextBatch(), BroadcastDst, 1)
	c.EndCycle(1, 10)
	d := c.Dump()
	if d != nil {
		t.Fatalf("nil recorder dumped %+v", d)
	}
	var buf bytes.Buffer
	if err := d.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("nil export invalid: %v", err)
	}
	for i, e := range doc.TraceEvents {
		if e["ph"] != "M" {
			t.Errorf("nil export event %d = %v, want metadata only", i, e)
		}
	}
	buf.Reset()
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("nil JSON export invalid: %q", buf.String())
	}
}

// TestServeDebug starts the debug server and checks that pprof and the
// expvar metrics snapshot are served.
func TestServeDebug(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("hits").Add(3)
	addr, stop, err := ServeDebug("127.0.0.1:0", map[string]func() any{
		"metrics": reg.SnapshotVar(),
	})
	if err != nil {
		t.Skipf("cannot listen: %v", err)
	}
	defer stop()

	get := func(path string) string {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		return string(b)
	}
	vars := get("/debug/vars")
	if !strings.Contains(vars, `"hits"`) || !strings.Contains(vars, `"metrics"`) {
		t.Errorf("/debug/vars missing metrics snapshot:\n%s", vars)
	}
	if idx := get("/debug/pprof/"); !strings.Contains(idx, "goroutine") {
		t.Error("/debug/pprof/ index missing profiles")
	}

	// A second ServeDebug with the same name must not panic and must
	// replace the snapshot.
	reg2 := NewRegistry()
	reg2.Counter("fresh").Inc()
	addr2, stop2, err := ServeDebug("127.0.0.1:0", map[string]func() any{
		"metrics": reg2.SnapshotVar(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer stop2()
	_ = addr2
	if vars := get("/debug/vars"); !strings.Contains(vars, `"fresh"`) {
		t.Error("republished metrics var not replaced")
	}
}
