package obs

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// TestFlightWraparound fills the ring past capacity and checks that only
// the newest trees survive, oldest-first.
func TestFlightWraparound(t *testing.T) {
	const capacity, added = defaultFlightCap, defaultFlightCap + 6
	r := New(WithSampleRate(1))
	for i := 0; i < added; i++ {
		_, sp := r.StartRoot(context.Background(), LayerAgent, fmt.Sprintf("op-%d", i))
		sp.End(nil)
	}
	trees := r.Flight()
	if len(trees) != capacity {
		t.Fatalf("retained = %d, want %d", len(trees), capacity)
	}
	for i, d := range trees {
		want := fmt.Sprintf("op-%d", added-capacity+i)
		if d.Op != want {
			t.Fatalf("tree %d op = %q, want %q", i, d.Op, want)
		}
	}
	if total := r.flight.total(); total != added {
		t.Fatalf("total = %d, want %d", total, added)
	}
}

// TestFlightPartialFill checks snapshot order before the ring wraps.
func TestFlightPartialFill(t *testing.T) {
	r := New(WithSampleRate(1))
	for i := 0; i < 3; i++ {
		_, sp := r.StartRoot(context.Background(), LayerAgent, fmt.Sprintf("op-%d", i))
		sp.End(nil)
	}
	trees := r.Flight()
	if len(trees) != 3 {
		t.Fatalf("retained = %d, want 3", len(trees))
	}
	for i, d := range trees {
		if want := fmt.Sprintf("op-%d", i); d.Op != want {
			t.Fatalf("tree %d op = %q, want %q", i, d.Op, want)
		}
	}
}

// TestFlightWraparoundConcurrent wraps the ring from many goroutines while
// snapshots run, under the race detector.
func TestFlightWraparoundConcurrent(t *testing.T) {
	const capacity = defaultFlightCap
	r := New(WithSampleRate(1))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				_, sp := r.StartRoot(context.Background(), LayerDevice, "io")
				sp.End(nil)
			}
		}()
	}
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		for i := 0; i < 200; i++ {
			if trees := r.Flight(); len(trees) > capacity {
				t.Errorf("snapshot exceeded capacity: %d", len(trees))
				return
			}
		}
	}()
	wg.Wait()
	snapWG.Wait()
	if got := len(r.Flight()); got != capacity {
		t.Fatalf("retained = %d, want %d", got, capacity)
	}
	if total := r.flight.total(); total != 4*500 {
		t.Fatalf("total = %d, want %d", total, 4*500)
	}
}
