package simnet

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mpcrete/internal/obs"
)

// mergeFlights computes the union length of in-flight intervals in one
// shot, with a comparison sort — the reference netAcct's radix path is
// checked against.
func mergeFlights(fs []flight) Time {
	if len(fs) == 0 {
		return 0
	}
	sorted := slices.Clone(fs)
	slices.SortFunc(sorted, func(a, b flight) int {
		switch {
		case a.dep < b.dep:
			return -1
		case a.dep > b.dep:
			return 1
		default:
			return 0
		}
	})
	var total Time
	curStart, curEnd := sorted[0].dep, sorted[0].arr
	for _, f := range sorted[1:] {
		if f.dep > curEnd {
			total += curEnd - curStart
			curStart, curEnd = f.dep, f.arr
		} else if f.arr > curEnd {
			curEnd = f.arr
		}
	}
	total += curEnd - curStart
	return total
}

// TestRadixFlightsMatchReference feeds the accountant flights whose
// departures spread over spans from 1 ns (every departure equal, no
// radix pass) to 2^62 ns (eight passes), a third of them duplicates of
// an earlier departure. Each batch adds more than 4,096 flights, so the
// buffer compacts at its threshold, and ends by asking for the total,
// as Stats does, which compacts a partial buffer. Every total must
// equal the one-shot reference over the flights so far, and the open
// buffer must then be sorted by departure.
func TestRadixFlightsMatchReference(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	for _, span := range []Time{1, 2, 255, 256, 257, 1 << 16, 1<<24 + 3, 1 << 40, 1 << 62} {
		t.Run(fmt.Sprint(span), func(t *testing.T) {
			var acct netAcct
			var all []flight
			now := span / 4 // departures start well above zero
			batches := 3
			if span > 1<<60 {
				batches = 1 // the clock must stay clear of overflow
			}
			for batch := 0; batch < batches; batch++ {
				for i := 0; i < netCompactAt+rnd.Intn(netCompactAt/8); i++ {
					dep := now + Time(rnd.Int63n(int64(span)))
					if len(all) > 0 && rnd.Intn(3) == 0 {
						dep = max(now, all[rnd.Intn(len(all))].dep)
					}
					f := flight{dep, dep + Time(rnd.Int63n(int64(min(span, 1<<40))+1))}
					all = append(all, f)
					acct.add(f, now)
					now += Time(rnd.Int63n(int64(span/netCompactAt) + 2))
				}
				if got, want := acct.total(now), mergeFlights(all); got != want {
					t.Fatalf("batch %d: union = %d, reference = %d", batch, got, want)
				}
				if !slices.IsSortedFunc(acct.open, func(a, b flight) int { return cmp.Compare(a.dep, b.dep) }) {
					t.Fatalf("batch %d: open buffer not sorted after compaction", batch)
				}
			}
		})
	}
}

// TestNetworkBusyMatchesRecordedFlights checks the accountant on a
// simulator's own flights: on a mesh, where per-hop transit makes the
// flights of one sender overlap out of order, Stats' NetworkBusy after
// each phase equals the reference union of the flights the recorder
// saw, each a send and the receive that carries its stamp.
func TestNetworkBusyMatchesRecordedFlights(t *testing.T) {
	cfg := Config{Procs: 9, SendOverhead: US(0.3), Latency: US(0.5), Topology: Mesh2D{W: 3, H: 3}, PerHop: US(0.7), TrackNetwork: true}
	type hop struct{ n int }
	s := New(cfg, func(ctx *Ctx, p Payload) {
		h := p.(*hop)
		ctx.Busy(US(1))
		if h.n > 0 {
			h.n--
			ctx.Send((ctx.Proc()*5+h.n)%9, h)
			ctx.Send((ctx.Proc()+1)%9, &hop{})
		}
	})
	rec := obs.NewCausalRecorder(9, 1<<13, 0, 0)
	s.SetRecorder(rec, []int32{0, 1, 2, 3, 4, 5, 6, 7, 8})
	for phase := 0; phase < 3; phase++ {
		s.Inject(phase, &hop{n: 2 * netCompactAt / 3}, s.Now())
		s.Run()
		deps := map[int32]Time{}
		var arrs []obs.CausalEvent
		for _, td := range rec.Dump().Tracks {
			if td.Dropped != 0 {
				t.Fatalf("track %q dropped %d events", td.Name, td.Dropped)
			}
			for _, e := range td.Events {
				switch e.Kind {
				case obs.EvSend:
					deps[e.Batch] = Time(e.TS)
				case obs.EvRecv:
					arrs = append(arrs, e)
				}
			}
		}
		var fs []flight
		for _, e := range arrs {
			fs = append(fs, flight{deps[e.Batch], Time(e.TS)})
		}
		if got, want := s.Stats().NetworkBusy, mergeFlights(fs); got != want || got == 0 {
			t.Fatalf("phase %d: NetworkBusy = %d, reference over %d flights = %d", phase, got, len(fs), want)
		}
	}
}
