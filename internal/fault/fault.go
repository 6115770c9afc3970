// Package fault implements a deterministic fault-injection layer for the
// storage stack. The reliability machinery of the paper — stable storage's
// careful writes (§2.1, §6.6), the write-ahead log's commit point (§6.7),
// parity rebuild — is only trustworthy if it survives failures injected at
// the worst possible instants, not just failures waited for. This package
// provides the instants.
//
// Subsystems declare named fault points with Register and consult an
// *Injector (nil-safe; nil injects nothing) at each point:
//
//   - Hit fires a crash (the process "dies" at the labeled site via a panic
//     the harness recovers with Run) or an injected delay;
//   - Err returns an injected operation error (device.ErrFailed, media
//     errors, message drops) to exercise swallowed-error paths;
//   - Torn models a torn stable write: only a prefix of the fragments
//     reaches the platter before the write "fails" or the machine dies.
//
// Faults are armed per point with hit counters (skip the first After hits,
// fire Times times), so a schedule derived from a seed is exactly
// replayable: the same seed arms the same actions and the injector's Trace
// records every fault that actually fired, in order.
//
// Concurrency and ownership contract: Register is called from package init
// (a global registry guarded by its own mutex); an *Injector is safe for
// concurrent use from every instrumented goroutine — arming, hit counting
// and the trace share one mutex, so hit counts are exact even when several
// goroutines cross the same point (group commit's batch boundaries rely on
// this: exactly one leader crashes). A crash is a typed panic that unwinds
// only the goroutine that hit the point; it is owned by the fault.Run that
// recovers it, so harnesses must enter every goroutine that can crash
// through Run — a crash escaping a bare goroutine kills the test process,
// which is the correct loud failure for an unguarded path.
package fault

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Point names one fault-injection site (e.g. "wal.sync.after-write").
type Point string

var (
	regMu    sync.Mutex
	registry = make(map[Point]bool)
)

// Register declares a fault point so harnesses can enumerate every site the
// stack exposes. It returns p, so packages declare points as
//
//	var ptX = fault.Register("pkg.op.site")
func Register(p Point) Point {
	regMu.Lock()
	defer regMu.Unlock()
	registry[p] = true
	return p
}

// Crash is the panic value thrown at an armed crash point. The torture
// harness recovers it with Run; anything else propagating a Crash is a
// harness bug, so the value is loud.
type Crash struct {
	Point Point
}

// String implements fmt.Stringer.
func (c Crash) String() string { return fmt.Sprintf("fault: injected crash at %s", c.Point) }

// ErrInjected marks every error produced by the injector, so tests can tell
// injected failures from real ones.
var ErrInjected = errors.New("fault: injected error")

// Kind discriminates armed actions.
type Kind int

// Action kinds.
const (
	// KindCrash kills the run at the point: Hit panics with Crash{Point}.
	KindCrash Kind = iota + 1
	// KindError makes Err return the armed error (wrapped in ErrInjected).
	KindError
	// KindTorn makes Torn report a torn write: the site persists only Frags
	// fragments, then crashes (Crash true) or fails (Crash false).
	KindTorn
	// KindDelay makes Hit sleep for Delay, and Delay return it.
	KindDelay
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindCrash:
		return "crash"
	case KindError:
		return "error"
	case KindTorn:
		return "torn"
	case KindDelay:
		return "delay"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Action is one armed fault.
type Action struct {
	Kind Kind
	// After skips the first After matching hits before firing (0 = fire on
	// the first hit).
	After int
	// Times bounds how often the action fires: 0 means once, negative means
	// on every hit.
	Times int
	// Err is the error KindError injects; defaults to ErrInjected alone.
	Err error
	// Frags is how many fragments a KindTorn write persists before dying.
	Frags int
	// Crash, for KindTorn, kills the run after the torn prefix is persisted
	// instead of returning an error from the write.
	Crash bool
	// Delay is the KindDelay sleep.
	Delay time.Duration
}

type arm struct {
	act   Action
	hits  int
	fired int
}

// Event records one fault that fired, for replay auditing.
type Event struct {
	Point Point
	Kind  Kind
	// Hit is the 1-based matching-hit number at which the action fired.
	Hit int
}

// Observer receives every fault event the instant it fires — after the hit
// is recorded in the trace but before the action's effect (crash panic,
// error return, torn write, delay) takes hold, and outside the injector's
// mutex. The observability layer wires a flight-recorder snapshot here, so
// a crash dump still sees the dying operation as in-flight.
type Observer func(Event)

// Injector holds the armed faults of one run. A nil *Injector is valid and
// injects nothing, so production paths carry it unconditionally. All methods
// are safe for concurrent use.
type Injector struct {
	seed int64

	// armed is len(arms), kept by every change to it: with nothing armed a
	// point returns without taking mu, so the points a hot path crosses
	// cost one atomic load until a harness arms one.
	armed atomic.Int32

	mu       sync.Mutex
	arms     map[Point]*arm
	trace    []Event
	observer Observer
}

// SetObserver installs fn as the fire observer (nil removes it).
func (in *Injector) SetObserver(fn Observer) {
	if in == nil {
		return
	}
	in.mu.Lock()
	in.observer = fn
	in.mu.Unlock()
}

// NewInjector creates an empty injector. The seed is not consumed by the
// injector itself — it names the schedule that armed it, and is echoed by
// Seed so every failure a harness injects is replayable from a logged seed.
func NewInjector(seed int64) *Injector {
	return &Injector{seed: seed, arms: make(map[Point]*arm)}
}

// Arm installs (or replaces) the action at point p.
func (in *Injector) Arm(p Point, act Action) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.arms[p] = &arm{act: act}
	in.armed.Store(int32(len(in.arms)))
}

// DisarmAll removes every armed action (the trace is retained).
func (in *Injector) DisarmAll() {
	if in == nil {
		return
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.arms = make(map[Point]*arm)
	in.armed.Store(0)
}

// Fired reports how many times any action fired at p.
func (in *Injector) Fired(p Point) int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	n := 0
	for _, e := range in.trace {
		if e.Point == p {
			n++
		}
	}
	return n
}

// idle reports that nothing is armed, so every point returns at once: one
// atomic load instead of the mutex, the kinds and the Action that take
// passes. An unarmed point counts no hit, so skipping take changes nothing.
func (in *Injector) idle() bool { return in == nil || in.armed.Load() == 0 }

// take consumes one matching hit at p: it counts the visit and returns the
// armed action if it is of one of the wanted kinds and due to fire. A due
// fire is reported to the observer after the mutex is released.
func (in *Injector) take(p Point, kinds ...Kind) (Action, bool) {
	act, ev, obs, ok := in.takeLocked(p, kinds...)
	if ok && obs != nil {
		obs(ev)
	}
	return act, ok
}

func (in *Injector) takeLocked(p Point, kinds ...Kind) (Action, Event, Observer, bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	a := in.arms[p]
	if a == nil {
		return Action{}, Event{}, nil, false
	}
	match := false
	for _, k := range kinds {
		if a.act.Kind == k {
			match = true
			break
		}
	}
	if !match {
		return Action{}, Event{}, nil, false
	}
	a.hits++
	if a.hits <= a.act.After {
		return Action{}, Event{}, nil, false
	}
	times := a.act.Times
	if times == 0 {
		times = 1
	}
	if times > 0 && a.fired >= times {
		return Action{}, Event{}, nil, false
	}
	a.fired++
	ev := Event{Point: p, Kind: a.act.Kind, Hit: a.hits}
	in.trace = append(in.trace, ev)
	return a.act, ev, in.observer, true
}

// Hit is the generic crash-point site: it kills the run (panics with
// Crash{p}) when a KindCrash action is due at p, and sleeps when a KindDelay
// action is due. Nil-safe.
func (in *Injector) Hit(p Point) {
	if in.idle() {
		return
	}
	act, ok := in.take(p, KindCrash, KindDelay)
	if !ok {
		return
	}
	switch act.Kind {
	case KindCrash:
		panic(Crash{Point: p})
	case KindDelay:
		time.Sleep(act.Delay)
	}
}

// Err returns the injected error when a KindError action is due at p, nil
// otherwise. The result always matches errors.Is(err, ErrInjected), and also
// matches the armed Err (e.g. device.ErrFailed) when one was set.
func (in *Injector) Err(p Point) error {
	if in.idle() {
		return nil
	}
	act, ok := in.take(p, KindError)
	if !ok {
		return nil
	}
	if act.Err != nil {
		return fmt.Errorf("fault: injected at %s: %w", p, errors.Join(ErrInjected, act.Err))
	}
	return fmt.Errorf("fault: injected at %s: %w", p, ErrInjected)
}

// Torn reports a due torn-write action at p: the site must persist only
// frags fragments of the write, then call CrashNow (crash true) or fail the
// operation (crash false).
func (in *Injector) Torn(p Point) (frags int, crash bool, ok bool) {
	if in.idle() {
		return 0, false, false
	}
	act, taken := in.take(p, KindTorn)
	if !taken {
		return 0, false, false
	}
	return act.Frags, act.Crash, true
}

// Delay returns the injected delay when a KindDelay action is due at p, for
// sites that must compare the delay against a deadline instead of sleeping.
func (in *Injector) Delay(p Point) time.Duration {
	if in.idle() {
		return 0
	}
	act, ok := in.take(p, KindDelay)
	if !ok {
		return 0
	}
	return act.Delay
}

// CrashNow unconditionally kills the run at p — used by sites after they
// have honored a torn write's persisted prefix.
func CrashNow(p Point) {
	panic(Crash{Point: p})
}

// Run executes fn, recovering an injected crash: crashed is non-nil when a
// Crash panic killed fn (err is then meaningless), and err is fn's own error
// otherwise. Panics other than Crash propagate.
func Run(fn func() error) (crashed *Crash, err error) {
	defer func() {
		if r := recover(); r != nil {
			c, ok := r.(Crash)
			if !ok {
				panic(r)
			}
			crashed = &c
			err = nil
		}
	}()
	err = fn()
	return crashed, err
}
