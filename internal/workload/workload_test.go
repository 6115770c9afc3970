package workload

import (
	"math/rand"
	"testing"
)

func TestFixed(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if got := (Fixed{N: 42}).Next(rng); got != 42 {
		t.Fatalf("Fixed = %d", got)
	}
}

func TestExponentialClamped(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	e := Exponential{Mean: 1000, Cap: 5000}
	for i := 0; i < 1000; i++ {
		got := e.Next(rng)
		if got < 1 || got > 5000 {
			t.Fatalf("Exponential out of range: %d", got)
		}
	}
}

func TestOfficeFilesSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := OfficeFiles()
	small := 0
	const n = 5000
	for i := 0; i < n; i++ {
		sz := d.Next(rng)
		if sz <= 0 {
			t.Fatalf("non-positive size %d", sz)
		}
		if sz < 16*1024 {
			small++
		}
	}
	if frac := float64(small) / n; frac < 0.6 {
		t.Fatalf("only %.0f%% of office files under 16KB; distribution should skew small", frac*100)
	}
}

func TestAccessGenSequential(t *testing.T) {
	g := &AccessGen{FileSize: 100, OpSize: 30, ReadFrac: 1, Sequential: true}
	rng := rand.New(rand.NewSource(4))
	offs := []int64{}
	for i := 0; i < 5; i++ {
		offs = append(offs, g.Next(rng).Offset)
	}
	want := []int64{0, 30, 60, 0, 30} // wraps before exceeding the file
	for i := range want {
		if offs[i] != want[i] {
			t.Fatalf("sequential offsets = %v, want %v", offs, want)
		}
	}
}

func TestAccessGenRandomInBounds(t *testing.T) {
	g := &AccessGen{FileSize: 10000, OpSize: 100, ReadFrac: 0.5}
	rng := rand.New(rand.NewSource(5))
	reads := 0
	for i := 0; i < 1000; i++ {
		a := g.Next(rng)
		if a.Offset < 0 || a.Offset+int64(a.Length) > 10000 {
			t.Fatalf("access out of bounds: %+v", a)
		}
		if a.Read {
			reads++
		}
	}
	if reads < 350 || reads > 650 {
		t.Fatalf("read fraction skewed: %d/1000", reads)
	}
}

func TestItemChooserUniformVsSkewed(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	uniform := ItemChooser{Items: 100, Theta: 0}
	hot := ItemChooser{Items: 100, Theta: 0.9}
	const n = 20000
	uniTop, hotTop := 0, 0
	for i := 0; i < n; i++ {
		if uniform.Choose(rng) < 10 {
			uniTop++
		}
		if hot.Choose(rng) < 10 {
			hotTop++
		}
	}
	if hotTop <= uniTop*2 {
		t.Fatalf("theta=0.9 not hotter than uniform: hot=%d uni=%d", hotTop, uniTop)
	}
	// Bounds.
	for i := 0; i < 1000; i++ {
		if got := hot.Choose(rng); got < 0 || got >= 100 {
			t.Fatalf("choice out of range: %d", got)
		}
	}
	if got := (ItemChooser{Items: 1}).Choose(rng); got != 0 {
		t.Fatalf("single-item chooser = %d", got)
	}
}

func TestTxnSpec(t *testing.T) {
	spec := TxnSpec{OpsPerTxn: 8, UpdateBytes: 64, ReadFrac: 0.5, Items: 10, ItemBytes: 128}
	rng := rand.New(rand.NewSource(7))
	ops := spec.NextTxn(rng)
	if len(ops) != 8 {
		t.Fatalf("ops = %d", len(ops))
	}
	for _, op := range ops {
		if op.Item < 0 || op.Item >= 10 {
			t.Fatalf("item out of range: %+v", op)
		}
		if op.Offset != int64(op.Item*128) {
			t.Fatalf("offset mismatch: %+v", op)
		}
		if op.Length != 64 {
			t.Fatalf("length = %d", op.Length)
		}
	}
	// Update larger than the item clamps.
	spec.UpdateBytes = 1024
	for _, op := range spec.NextTxn(rng) {
		if op.Length != 128 {
			t.Fatalf("unclamped length %d", op.Length)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := FileSet(OfficeFiles(), 100, 42)
	b := FileSet(OfficeFiles(), 100, 42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different file sets")
		}
	}
	c := FileSet(OfficeFiles(), 100, 43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical file sets")
	}
}

func TestDeadlockPair(t *testing.T) {
	a, b := DeadlockPair(3, 7)
	if a[0] != 3 || a[1] != 7 || b[0] != 7 || b[1] != 3 {
		t.Fatalf("DeadlockPair = %v %v", a, b)
	}
}
