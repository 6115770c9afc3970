package workload

import (
	"errors"
	"sync"
	"testing"
	"time"
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

// slowAgent serves each operation in a fixed time, so the open loop's
// offered-vs-completed gap is predictable.
type slowAgent struct {
	memAgent
	service time.Duration
}

func (a *slowAgent) ReadAt(off int64, n int) ([]byte, error) {
	time.Sleep(a.service)
	return a.memAgent.ReadAt(off, n)
}

func (a *slowAgent) WriteAt(off int64, data []byte) (int, error) {
	time.Sleep(a.service)
	return a.memAgent.WriteAt(off, data)
}

type loadAgentFunc struct {
	read  func(off int64, n int) ([]byte, error)
	write func(off int64, data []byte) (int, error)
}

func (f loadAgentFunc) ReadAt(off int64, n int) ([]byte, error)  { return f.read(off, n) }
func (f loadAgentFunc) WriteAt(off int64, d []byte) (int, error) { return f.write(off, d) }

// recordingAgent logs every access: reads as their offset, writes as its
// negation minus one (so a write at 0 is told apart from a read at 0).
func recordingAgent(seen *[]int64) LoadAgent {
	var mu sync.Mutex
	log := func(v int64) {
		mu.Lock()
		*seen = append(*seen, v)
		mu.Unlock()
	}
	return loadAgentFunc{
		read:  func(off int64, n int) ([]byte, error) { log(off); return make([]byte, n), nil },
		write: func(off int64, data []byte) (int, error) { log(-off - 1); return len(data), nil },
	}
}

func TestRunClosedLoop(t *testing.T) {
	const agents, ops = 8, 50
	las := make([]LoadAgent, agents)
	mems := make([]*memAgent, agents)
	for i := range las {
		mems[i] = &memAgent{data: make([]byte, 1<<16)}
		las[i] = mems[i]
	}
	res, err := Run(LoadConfig{
		OpsPerAgent: ops,
		ReadFrac:    0.7,
		OpSize:      512,
		FileSize:    1 << 16,
		Seed:        42,
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
		if m.ops != ops || res.PerAgent[i].OK != ops {
			t.Fatalf("agent %d ran %d ops (%d counted), want %d", i, m.ops, res.PerAgent[i].OK, ops)
		}
	}
	if res.OpsPerSec() <= 0 {
		t.Fatalf("OpsPerSec = %f", res.OpsPerSec())
	}
	if res.Latency.Count() != int64(agents*ops) {
		t.Fatalf("latency samples = %d, want %d", res.Latency.Count(), agents*ops)
	}
	if res.Offered != 0 {
		t.Fatalf("closed loop reported %d offered", res.Offered)
	}
}

func TestRunClosedLoopDeterministicStreams(t *testing.T) {
	// Same seed, same per-agent operation streams: two runs over recording
	// agents must observe identical access sequences.
	run := func() []int64 {
		var seen []int64
		if _, err := Run(LoadConfig{
			OpsPerAgent: 40, ReadFrac: 0.5, OpSize: 256, FileSize: 1 << 14, Seed: 7,
		}, []LoadAgent{recordingAgent(&seen)}); err != nil {
			t.Fatal(err)
		}
		return seen
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

// TestRunSequentialStream pins the stream E16's passes rely on: a
// sequential agent with ReadFrac 1 (or 0) reads (or writes) its file at
// 0, chunk, 2·chunk, … exactly once per chunk.
func TestRunSequentialStream(t *testing.T) {
	const chunk, chunks = 512, 4
	for _, tc := range []struct {
		readFrac float64
		want     func(off int64) int64
	}{
		{1, func(off int64) int64 { return off }},
		{0, func(off int64) int64 { return -off - 1 }},
	} {
		var seen []int64
		res, err := Run(LoadConfig{
			OpsPerAgent: chunks, ReadFrac: tc.readFrac, OpSize: chunk,
			FileSize: chunk * chunks, Sequential: true,
		}, []LoadAgent{recordingAgent(&seen)})
		if err != nil {
			t.Fatal(err)
		}
		if res.Ops != chunks || len(seen) != chunks {
			t.Fatalf("ReadFrac %v: %d ops, %d accesses, want %d", tc.readFrac, res.Ops, len(seen), chunks)
		}
		for k, got := range seen {
			if want := tc.want(int64(k * chunk)); got != want {
				t.Fatalf("ReadFrac %v: access %d = %d, want %d", tc.readFrac, k, got, want)
			}
		}
	}
}

// TestRunTimedCountsFailures: a timed run keeps going past failures. The
// failing agent's errors are counted against it alone, the run still ends
// at its deadline, and the healthy agents' counts and histograms are whole.
func TestRunTimedCountsFailures(t *testing.T) {
	const d = 100 * time.Millisecond
	boom := errors.New("shard down")
	fail := func() error { time.Sleep(time.Millisecond); return boom }
	las := []LoadAgent{
		&slowAgent{memAgent: memAgent{data: make([]byte, 1<<16)}, service: time.Millisecond},
		loadAgentFunc{
			read:  func(int64, int) ([]byte, error) { return nil, fail() },
			write: func(int64, []byte) (int, error) { return 0, fail() },
		},
		&slowAgent{memAgent: memAgent{data: make([]byte, 1<<16)}, service: time.Millisecond},
	}
	res, err := Run(LoadConfig{ReadFrac: 0.5, OpSize: 512, FileSize: 1 << 16, Seed: 3, Duration: d}, las)
	if !errors.Is(err, boom) {
		t.Fatalf("run error = %v, want the failing agent's", err)
	}
	if res.Wall < d || res.Wall > 3*d {
		t.Fatalf("timed run took %v, want it to end at its %v deadline", res.Wall, d)
	}
	bad := res.PerAgent[1]
	if bad.OK != 0 || bad.Failed == 0 || !errors.Is(bad.Err, boom) {
		t.Fatalf("failing agent: %d ok, %d failed, err %v", bad.OK, bad.Failed, bad.Err)
	}
	if bad.Latency.Count() != int64(bad.Failed) {
		t.Fatalf("failing agent: %d samples for %d failures", bad.Latency.Count(), bad.Failed)
	}
	for _, i := range []int{0, 2} {
		ar, m := res.PerAgent[i], las[i].(*slowAgent)
		if ar.OK == 0 || ar.Failed != 0 || ar.Err != nil || ar.OK != m.ops {
			t.Fatalf("healthy agent %d: %d ok (%d served), %d failed, err %v", i, ar.OK, m.ops, ar.Failed, ar.Err)
		}
		if ar.Latency.Count() != int64(ar.OK) || ar.Latency.Quantile(0.5) < time.Millisecond {
			t.Fatalf("healthy agent %d: %d samples for %d ops, p50 %v", i, ar.Latency.Count(), ar.OK, ar.Latency.Quantile(0.5))
		}
	}
	if res.Ops != res.PerAgent[0].OK+res.PerAgent[2].OK {
		t.Fatalf("Ops = %d, want the healthy agents' %d", res.Ops, res.PerAgent[0].OK+res.PerAgent[2].OK)
	}
}

// TestRunStopRulePrecedence: a counted closed loop runs all its operations
// even past a Duration it was also given; the count is its stop rule.
func TestRunStopRulePrecedence(t *testing.T) {
	la := &slowAgent{memAgent: memAgent{data: make([]byte, 1<<16)}, service: 2 * time.Millisecond}
	res, err := Run(LoadConfig{OpsPerAgent: 5, ReadFrac: 1, OpSize: 512, FileSize: 1 << 16, Duration: time.Millisecond}, []LoadAgent{la})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 5 || la.ops != 5 {
		t.Fatalf("counted run stopped after %d ops (%d served), want 5", res.Ops, la.ops)
	}
}

func TestRunClosedLoopRejectsBadConfig(t *testing.T) {
	la := []LoadAgent{&memAgent{data: make([]byte, 64)}}
	if _, err := Run(LoadConfig{}, la); err == nil {
		t.Fatal("zero config accepted")
	}
	if _, err := Run(LoadConfig{OpSize: 16, FileSize: 64}, la); err == nil {
		t.Fatal("config without a stop rule accepted")
	}
}

func TestRunOpenLoopMeetsOfferedRate(t *testing.T) {
	// 4 agents, fast service, modest rate: the schedule should be met and
	// every offered operation completed.
	las := make([]LoadAgent, 4)
	for i := range las {
		las[i] = &memAgent{data: make([]byte, 1<<16)}
	}
	cfg := LoadConfig{ReadFrac: 0.5, OpSize: 512, FileSize: 1 << 16, Seed: 1, Rate: 400, Duration: 250 * time.Millisecond}
	res, err := Run(cfg, las)
	if err != nil {
		t.Fatal(err)
	}
	if res.Offered != 100 {
		t.Fatalf("Offered = %d, want 400/s over 250ms = 100", res.Offered)
	}
	if res.Ops != res.Offered {
		t.Fatalf("uncontended open loop completed %d of %d offered", res.Ops, res.Offered)
	}
}

func TestRunOpenLoopOverloadShowsQueueing(t *testing.T) {
	// One agent, 5ms service time, offered 1000 ops/sec: capacity is
	// ~200/s, so latency measured from scheduled arrival must blow far
	// past the service time as the FIFO backs up.
	la := &slowAgent{memAgent: memAgent{data: make([]byte, 1<<16)}, service: 5 * time.Millisecond}
	cfg := LoadConfig{ReadFrac: 1, OpSize: 512, FileSize: 1 << 16, Seed: 1, Rate: 1000, Duration: 300 * time.Millisecond}
	res, err := Run(cfg, []LoadAgent{la})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops >= res.Offered {
		t.Fatalf("overloaded agent kept up: %d of %d", res.Ops, res.Offered)
	}
	// p90 queueing delay should dwarf one service time.
	if p90 := res.Latency.Quantile(0.9); p90 < 20*time.Millisecond {
		t.Fatalf("p90 latency %v under overload, want >> 5ms service time", p90)
	}
}

func TestRunOpenLoopRejectsBadConfig(t *testing.T) {
	la := []LoadAgent{&memAgent{data: make([]byte, 64)}}
	cfg := LoadConfig{ReadFrac: 1, OpSize: 16, FileSize: 64, Rate: 100, Duration: time.Second}
	for name, mut := range map[string]func(*LoadConfig){
		"negative rate":        func(c *LoadConfig) { c.Rate = -1 },
		"zero duration":        func(c *LoadConfig) { c.Duration = 0 },
		"duration under a gap": func(c *LoadConfig) { c.Rate, c.Duration = 1, time.Millisecond },
		"zero op size":         func(c *LoadConfig) { c.OpSize = 0 },
	} {
		c := cfg
		mut(&c)
		if _, err := Run(c, la); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
	if _, err := Run(cfg, nil); err == nil {
		t.Fatal("no agents accepted")
	}
}
