package workloads

import (
	"bytes"
	"strings"
	"testing"

	"mpcrete/internal/engine"
	"mpcrete/internal/ops5"
)

// runConfigurator executes the configurator on the given orders and
// returns the engine and its write output.
func runConfigurator(t *testing.T, orders ...ConfiguratorOrder) (*engine.Session, string) {
	t.Helper()
	prog, err := ops5.ParseProgram(Configurator)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	e, err := engine.New(prog, engine.CompileOptions{}, engine.SessionOptions{Output: &out})
	if err != nil {
		t.Fatal(err)
	}
	wmes, err := ops5.ParseWMEs(ConfiguratorWMEs(orders...))
	if err != nil {
		t.Fatal(err)
	}
	e.InsertWMEs(wmes...)
	if _, err := e.Run(2000); err != nil {
		t.Fatal(err)
	}
	return e, out.String()
}

func TestConfiguratorSingleOrderOK(t *testing.T) {
	order := ConfiguratorOrder{ID: "ord-1", CPUs: 1, Disks: 2, PowerMax: 100}
	e, out := runConfigurator(t, order)
	if !e.Halted() {
		t.Fatal("configurator should halt")
	}
	// 1 cpu(25) + 2 disks(20) + 1 controller(5) = 50 <= 100.
	if want := "order ord-1 configured at power 50 of 100"; !strings.Contains(out, want) {
		t.Errorf("output %q missing %q", out, want)
	}
	// Wme inventory: order + phase + budget + next-seq + 4 components +
	// 1 controller + 1 report = 10.
	if e.WMCount() != 10 {
		t.Errorf("wm = %d, want 10", e.WMCount())
	}
}

func TestConfiguratorOverBudget(t *testing.T) {
	order := ConfiguratorOrder{ID: "big", CPUs: 2, Disks: 5, PowerMax: 100}
	e, out := runConfigurator(t, order)
	if !e.Halted() {
		t.Fatal("should halt")
	}
	// 2*25 + 5*10 + 2*5 = 110 > 100.
	if want := "order big power 110 exceeds budget 100"; !strings.Contains(out, want) {
		t.Errorf("output %q missing %q", out, want)
	}
	if got, want := ConfiguratorPower(order), 110; got != want {
		t.Errorf("predicted power = %d, want %d", got, want)
	}
}

func TestConfiguratorMultipleOrders(t *testing.T) {
	orders := []ConfiguratorOrder{
		{ID: "a", CPUs: 1, Disks: 3, PowerMax: 200},
		{ID: "b", CPUs: 3, Disks: 7, PowerMax: 100}, // 75+70+15 = 160 > 100
		{ID: "c", CPUs: 0, Disks: 1, PowerMax: 50},
	}
	e, out := runConfigurator(t, orders...)
	if !e.Halted() {
		t.Fatal("should halt")
	}
	for _, want := range []string{
		"order a configured",
		"order b power 160 exceeds budget 100",
		"order c configured at power 15 of 50",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Inventory per order: 4 bookkeeping + components + controllers + report.
	want := 0
	for _, o := range orders {
		want += 4 + ConfiguratorComponents(o) + (o.Disks+2)/3 + 1
	}
	if e.WMCount() != want {
		t.Errorf("wm = %d, want %d", e.WMCount(), want)
	}
}

func TestConfiguratorControllerChannels(t *testing.T) {
	// 7 disks need ceil(7/3) = 3 controllers; no controller exceeds 3.
	prog, err := ops5.ParseProgram(Configurator)
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(prog, engine.CompileOptions{}, engine.SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wmes, err := ops5.ParseWMEs(ConfiguratorWMEs(ConfiguratorOrder{ID: "d", CPUs: 0, Disks: 7, PowerMax: 500}))
	if err != nil {
		t.Fatal(err)
	}
	e.InsertWMEs(wmes...)
	if _, err := e.Run(2000); err != nil {
		t.Fatal(err)
	}
	if !e.Halted() {
		t.Fatal("should halt")
	}
	// 4 bookkeeping + 7 disks + 3 controller components + 3 controller
	// wmes + 1 report = 18.
	if e.WMCount() != 18 {
		t.Errorf("wm = %d, want 18", e.WMCount())
	}
}

func TestConfiguratorTraceFeedsSimulator(t *testing.T) {
	tr, e, err := RecordRun("config", Configurator,
		ConfiguratorWMEs(ConfiguratorOrder{ID: "x", CPUs: 2, Disks: 6, PowerMax: 300}), 2000)
	if err != nil {
		t.Fatal(err)
	}
	if !e.Halted() {
		t.Fatal("should halt")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	s := tr.Stats()
	if s.Cycles < 15 || s.Total == 0 {
		t.Errorf("trace stats = %+v, want a real multi-cycle trace", s)
	}
}
