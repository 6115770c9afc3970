package workload

import (
	"sync"
	"testing"

	"repro/internal/obs"
)

// memAgent is an in-memory LoadAgent that counts operations.
type memAgent struct {
	mu   sync.Mutex
	data []byte
	ops  int
}

func (a *memAgent) ReadAt(off int64, n int) ([]byte, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.ops++
	end := off + int64(n)
	if end > int64(len(a.data)) {
		end = int64(len(a.data))
	}
	return a.data[off:end], nil
}

func (a *memAgent) WriteAt(off int64, data []byte) (int, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.ops++
	copy(a.data[off:], data)
	return len(data), nil
}

func TestRunClosedLoop(t *testing.T) {
	const agents, ops = 8, 50
	las := make([]LoadAgent, agents)
	mems := make([]*memAgent, agents)
	for i := range las {
		mems[i] = &memAgent{data: make([]byte, 1<<16)}
		las[i] = mems[i]
	}
	hist := &obs.Histogram{}
	res, err := RunClosedLoop(LoadConfig{
		OpsPerAgent: ops,
		ReadFrac:    0.7,
		OpSize:      512,
		FileSize:    1 << 16,
		Seed:        42,
		Latency:     hist,
	}, las)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != agents*ops {
		t.Fatalf("Ops = %d, want %d", res.Ops, agents*ops)
	}
	if res.Bytes != int64(agents*ops*512) {
		t.Fatalf("Bytes = %d", res.Bytes)
	}
	for i, m := range mems {
		if m.ops != ops {
			t.Fatalf("agent %d ran %d ops, want %d", i, m.ops, ops)
		}
	}
	if res.OpsPerSec() <= 0 {
		t.Fatalf("OpsPerSec = %f", res.OpsPerSec())
	}
	if hist.Count() != int64(agents*ops) {
		t.Fatalf("latency samples = %d, want %d", hist.Count(), agents*ops)
	}
}

func TestRunClosedLoopDeterministicStreams(t *testing.T) {
	// Same seed, same per-agent operation streams: two runs over recording
	// agents must observe identical access sequences.
	type rec struct {
		mu   sync.Mutex
		seen []int64
	}
	run := func() []int64 {
		r := &rec{}
		a := loadAgentFunc{
			read: func(off int64, n int) ([]byte, error) {
				r.mu.Lock()
				r.seen = append(r.seen, off)
				r.mu.Unlock()
				return make([]byte, n), nil
			},
			write: func(off int64, data []byte) (int, error) {
				r.mu.Lock()
				r.seen = append(r.seen, -off)
				r.mu.Unlock()
				return len(data), nil
			},
		}
		if _, err := RunClosedLoop(LoadConfig{
			OpsPerAgent: 40, ReadFrac: 0.5, OpSize: 256, FileSize: 1 << 14, Seed: 7,
		}, []LoadAgent{a}); err != nil {
			t.Fatal(err)
		}
		return r.seen
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("stream lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("streams diverge at op %d: %d vs %d", i, a[i], b[i])
		}
	}
}

type loadAgentFunc struct {
	read  func(off int64, n int) ([]byte, error)
	write func(off int64, data []byte) (int, error)
}

func (f loadAgentFunc) ReadAt(off int64, n int) ([]byte, error)  { return f.read(off, n) }
func (f loadAgentFunc) WriteAt(off int64, d []byte) (int, error) { return f.write(off, d) }

func TestRunClosedLoopRejectsBadConfig(t *testing.T) {
	if _, err := RunClosedLoop(LoadConfig{}, nil); err == nil {
		t.Fatal("zero config accepted")
	}
}
