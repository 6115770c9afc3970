package fault

import "sort"

// Registered reports whether p was declared with Register.
func Registered(p Point) bool {
	regMu.Lock()
	defer regMu.Unlock()
	return registry[p]
}

// Points returns every registered point, sorted.
func Points() []Point {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]Point, 0, len(registry))
	for p := range registry {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Seed returns the schedule seed the injector was created with.
func (in *Injector) Seed() int64 {
	if in == nil {
		return 0
	}
	return in.seed
}

// Trace returns the faults that fired, in order.
func (in *Injector) Trace() []Event {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]Event(nil), in.trace...)
}

// Disarm removes the action at p.
func (in *Injector) Disarm(p Point) {
	in.mu.Lock()
	defer in.mu.Unlock()
	delete(in.arms, p)
	in.armed.Store(int32(len(in.arms)))
}
