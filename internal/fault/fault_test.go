package fault

import (
	"errors"
	"testing"
	"time"
)

func TestRegisterAndEnumerate(t *testing.T) {
	p := Register("fault-test.op.site")
	if !Registered(p) {
		t.Fatal("registered point not reported")
	}
	if Registered("fault-test.never") {
		t.Fatal("unregistered point reported as registered")
	}
	found := false
	for _, q := range Points() {
		if q == p {
			found = true
		}
	}
	if !found {
		t.Fatal("registered point missing from Points()")
	}
}

func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	in.Hit("x") // must not panic
	if err := in.Err("x"); err != nil {
		t.Fatalf("nil Err = %v", err)
	}
	if _, _, ok := in.Torn("x"); ok {
		t.Fatal("nil Torn fired")
	}
	if d := in.Delay("x"); d != 0 {
		t.Fatalf("nil Delay = %v", d)
	}
	if in.Seed() != 0 || in.Fired("x") != 0 || in.Trace() != nil {
		t.Fatal("nil accessors not zero")
	}
	in.DisarmAll() // must not panic
}

func TestErrWrapsArmedError(t *testing.T) {
	in := NewInjector(7)
	if in.Seed() != 7 {
		t.Fatalf("Seed = %d", in.Seed())
	}
	sentinel := errors.New("sentinel")
	in.Arm("p", Action{Kind: KindError, Err: sentinel})
	err := in.Err("p")
	if !errors.Is(err, ErrInjected) || !errors.Is(err, sentinel) {
		t.Fatalf("injected error %v must match both ErrInjected and the armed error", err)
	}
	// Times defaults to once.
	if err := in.Err("p"); err != nil {
		t.Fatalf("second hit fired: %v", err)
	}
}

func TestAfterAndTimes(t *testing.T) {
	in := NewInjector(1)
	in.Arm("p", Action{Kind: KindError, After: 2, Times: 2})
	var fired []int
	for i := 1; i <= 6; i++ {
		if in.Err("p") != nil {
			fired = append(fired, i)
		}
	}
	if len(fired) != 2 || fired[0] != 3 || fired[1] != 4 {
		t.Fatalf("fired on hits %v, want [3 4]", fired)
	}
	// Negative Times fires forever.
	in.Arm("q", Action{Kind: KindError, Times: -1})
	for i := 0; i < 5; i++ {
		if in.Err("q") == nil {
			t.Fatalf("hit %d did not fire with Times=-1", i)
		}
	}
}

func TestKindMismatchDoesNotConsumeHits(t *testing.T) {
	in := NewInjector(1)
	in.Arm("p", Action{Kind: KindError})
	in.Hit("p") // crash/delay site: must not consume the error hit
	if _, _, ok := in.Torn("p"); ok {
		t.Fatal("Torn fired on a KindError arm")
	}
	if in.Err("p") == nil {
		t.Fatal("error was consumed by mismatched-kind sites")
	}
}

func TestRunRecoversCrash(t *testing.T) {
	in := NewInjector(1)
	in.Arm("p", Action{Kind: KindCrash})
	crashed, err := Run(func() error {
		in.Hit("p")
		t.Fatal("unreachable")
		return nil
	})
	if crashed == nil || crashed.Point != "p" || err != nil {
		t.Fatalf("Run = %v, %v", crashed, err)
	}
	if got := crashed.String(); got == "" {
		t.Fatal("empty Crash string")
	}
	// A plain error passes through without a crash.
	sentinel := errors.New("x")
	crashed, err = Run(func() error { return sentinel })
	if crashed != nil || !errors.Is(err, sentinel) {
		t.Fatalf("Run = %v, %v", crashed, err)
	}
}

func TestRunPropagatesForeignPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("foreign panic swallowed")
		}
	}()
	_, _ = Run(func() error { panic("not a fault.Crash") })
}

func TestTornAndTrace(t *testing.T) {
	in := NewInjector(3)
	in.Arm("w", Action{Kind: KindTorn, Frags: 2, Crash: true})
	frags, crash, ok := in.Torn("w")
	if !ok || frags != 2 || !crash {
		t.Fatalf("Torn = %d,%v,%v", frags, crash, ok)
	}
	in.Arm("d", Action{Kind: KindDelay, Delay: time.Millisecond})
	if d := in.Delay("d"); d != time.Millisecond {
		t.Fatalf("Delay = %v", d)
	}
	tr := in.Trace()
	if len(tr) != 2 || tr[0].Point != "w" || tr[0].Kind != KindTorn || tr[1].Point != "d" {
		t.Fatalf("Trace = %+v", tr)
	}
	if in.Fired("w") != 1 || in.Fired("d") != 1 || in.Fired("never") != 0 {
		t.Fatal("Fired counts wrong")
	}
	// DisarmAll clears arms but keeps the trace for auditing.
	in.DisarmAll()
	if _, _, ok := in.Torn("w"); ok {
		t.Fatal("fired after DisarmAll")
	}
	if len(in.Trace()) != 2 {
		t.Fatal("trace lost by DisarmAll")
	}
}

func TestDisarmSinglePoint(t *testing.T) {
	in := NewInjector(1)
	in.Arm("a", Action{Kind: KindError, Times: -1})
	in.Arm("b", Action{Kind: KindError, Times: -1})
	in.Disarm("a")
	if in.Err("a") != nil {
		t.Fatal("disarmed point fired")
	}
	if in.Err("b") == nil {
		t.Fatal("sibling point was disarmed too")
	}
}

// An unarmed injector's points do not take its mutex: with the mutex held
// here, Hit, Err and Torn still return — on a new injector, after the only
// armed point is disarmed, and after DisarmAll.
func TestUnarmedPointsSkipTheMutex(t *testing.T) {
	for _, c := range []struct {
		name  string
		setup func(*Injector)
	}{
		{"new", func(*Injector) {}},
		{"disarmed", func(in *Injector) { in.Arm("a", Action{Kind: KindCrash}); in.Disarm("a") }},
		{"disarmed all", func(in *Injector) {
			in.Arm("a", Action{Kind: KindCrash})
			in.Arm("b", Action{Kind: KindError})
			in.DisarmAll()
		}},
	} {
		in := NewInjector(1)
		c.setup(in)
		in.mu.Lock()
		done := make(chan struct{})
		go func() {
			defer close(done)
			in.Hit("a")
			if in.Err("b") != nil {
				t.Errorf("%s: an unarmed point fired", c.name)
			}
			if _, _, ok := in.Torn("a"); ok {
				t.Errorf("%s: an unarmed point tore a write", c.name)
			}
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: an unarmed point waited for the injector's mutex", c.name)
		}
		in.mu.Unlock()
	}
	// Arming one point again makes every point consult the arms.
	in := NewInjector(1)
	in.Arm("a", Action{Kind: KindError})
	in.Disarm("a")
	in.Arm("b", Action{Kind: KindError})
	if in.Err("b") == nil {
		t.Fatal("the point armed after a disarm did not fire")
	}
}

func TestKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{
		KindCrash: "crash", KindError: "error", KindTorn: "torn", KindDelay: "delay",
	} {
		if k.String() != want {
			t.Fatalf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
	if Kind(99).String() == "" {
		t.Fatal("unknown kind has empty string")
	}
}

func TestObserverSeesFireBeforeCrash(t *testing.T) {
	in := NewInjector(1)
	in.Arm("boom", Action{Kind: KindCrash})
	var seen []Event
	in.SetObserver(func(e Event) { seen = append(seen, e) })
	crashed, _ := Run(func() error {
		in.Hit("boom")
		return nil
	})
	if crashed == nil || crashed.Point != "boom" {
		t.Fatalf("crash not delivered: %v", crashed)
	}
	if len(seen) != 1 || seen[0].Point != "boom" || seen[0].Kind != KindCrash || seen[0].Hit != 1 {
		t.Fatalf("observer events = %+v", seen)
	}
	// Misses (not-due hits) are not reported.
	in.Hit("boom") // Times defaults to once; this is a miss
	if len(seen) != 1 {
		t.Fatalf("observer saw a miss: %+v", seen)
	}
	// The observer can re-enter the injector without deadlocking.
	in.Arm("err", Action{Kind: KindError, Times: -1})
	in.SetObserver(func(e Event) { _ = in.Trace() })
	if in.Err("err") == nil {
		t.Fatal("armed error did not fire")
	}
	in.SetObserver(nil)
	if in.Err("err") == nil {
		t.Fatal("armed error did not fire after observer removal")
	}
}
