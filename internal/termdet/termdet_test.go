package termdet

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestCounterBasic(t *testing.T) {
	c := NewCounter()
	c.Add(2)
	done := make(chan struct{})
	go func() {
		c.Wait()
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("Wait returned with pending work")
	case <-time.After(10 * time.Millisecond):
	}
	c.Add(-1)
	c.Add(-1)
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Wait did not return at zero")
	}
	// The count stays at zero: a later Wait returns at once too.
	again := make(chan struct{})
	go func() {
		c.Wait()
		close(again)
	}()
	select {
	case <-again:
	case <-time.After(time.Second):
		t.Fatal("count not zero after Wait returned")
	}
}

func TestCounterReusableAcrossPhases(t *testing.T) {
	c := NewCounter()
	for phase := 0; phase < 3; phase++ {
		c.Add(5)
		var wg sync.WaitGroup
		for i := 0; i < 5; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c.Add(-1)
			}()
		}
		c.Wait()
		wg.Wait()
	}
}

func TestCounterNegativePanics(t *testing.T) {
	c := NewCounter()
	defer func() {
		if recover() == nil {
			t.Error("expected panic on negative count")
		}
	}()
	c.Add(-1)
}

func TestCounterConcurrentWorkExpansion(t *testing.T) {
	// Work that spawns more work: the counter must not hit zero early.
	c := NewCounter()
	var processed int64
	var mu sync.Mutex
	var spawn func(depth int)
	spawn = func(depth int) {
		defer c.Add(-1)
		mu.Lock()
		processed++
		mu.Unlock()
		if depth < 4 {
			for i := 0; i < 3; i++ {
				c.Add(1) // register BEFORE making visible
				go spawn(depth + 1)
			}
		}
	}
	c.Add(1)
	go spawn(0)
	c.Wait()
	want := int64(1 + 3 + 9 + 27 + 81)
	mu.Lock()
	got := processed
	mu.Unlock()
	if got != want {
		t.Errorf("processed = %d, want %d", got, want)
	}
}

func TestFourCounterDetectsTermination(t *testing.T) {
	// Two workers exchanging a fixed number of messages.
	counts := []*ChannelCounts{{}, {}}
	det := NewFourCounter(counts)

	chA, chB := make(chan int, 100), make(chan int, 100)
	var wg sync.WaitGroup
	worker := func(me *ChannelCounts, in <-chan int, out chan<- int) {
		defer wg.Done()
		for v := range in {
			if v > 0 {
				me.IncSent()
				out <- v - 1
			}
			me.AddRecv(1)
		}
	}
	wg.Add(2)
	go worker(counts[0], chA, chB)
	go worker(counts[1], chB, chA)

	counts[0].IncSent() // initial injection counts as a send
	chB <- 50

	if err := det.WaitTerminated(func() error { runtime.Gosched(); return nil }); err != nil {
		t.Fatal(err)
	}
	s, r := det.Poll()
	if s != r {
		t.Errorf("after termination sent=%d recv=%d", s, r)
	}
	if s != 51 { // initial + 50 forwards
		t.Errorf("sent = %d, want 51", s)
	}
	close(chA)
	close(chB)
	wg.Wait()
}

func TestFourCounterCheckRequiresStability(t *testing.T) {
	counts := []*ChannelCounts{{}}
	det := NewFourCounter(counts)
	counts[0].IncSent()
	counts[0].AddRecv(1)
	// First check: totals 1,1 but previous round was (-1,-1): not done.
	s, r, done := det.Check(-1, -1)
	if done {
		t.Error("single round must not prove termination")
	}
	// Second identical round: done.
	if _, _, done = det.Check(s, r); !done {
		t.Error("two stable rounds with S==R should prove termination")
	}
	// Activity between rounds resets the proof.
	counts[0].IncSent()
	if _, _, done = det.Check(s, r); done {
		t.Error("in-flight message must block termination")
	}
}
