package bullet

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/device"
	"repro/internal/metrics"
)

func newServer(t *testing.T) (*Server, *metrics.Set) {
	t.Helper()
	met := metrics.NewSet()
	d, err := device.New(device.Geometry{FragmentsPerTrack: 32, Tracks: 64}, device.WithMetrics(met))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(d)
	if err != nil {
		t.Fatal(err)
	}
	return s, met
}

func TestCreateReadRoundTrip(t *testing.T) {
	s, _ := newServer(t)
	want := bytes.Repeat([]byte("bullet"), 1000)
	id, err := s.Create(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Read(id)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("Read mismatch: %v", err)
	}
}

func TestWholeFileReadIsOneReferenceEveryTime(t *testing.T) {
	s, met := newServer(t)
	id, err := s.Create(bytes.Repeat([]byte("x"), 64*1024))
	if err != nil {
		t.Fatal(err)
	}
	before := met.Get(metrics.DiskReferences)
	for i := 0; i < 10; i++ {
		if _, err := s.Read(id); err != nil {
			t.Fatal(err)
		}
	}
	// One reference per read — every time, because there is no cache (§1).
	if got := met.Get(metrics.DiskReferences) - before; got != 10 {
		t.Fatalf("10 re-reads took %d references, want 10 (no caching)", got)
	}
}

func TestEmptyFileRejected(t *testing.T) {
	s, _ := newServer(t)
	if _, err := s.Create(nil); !errors.Is(err, ErrEmpty) {
		t.Fatalf("Create(nil) = %v", err)
	}
}

func TestFilesAreImmutablyDistinct(t *testing.T) {
	s, _ := newServer(t)
	a, err := s.Create([]byte("aaaa"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Create([]byte("bbbb"))
	if err != nil {
		t.Fatal(err)
	}
	ga, _ := s.Read(a)
	gb, _ := s.Read(b)
	if string(ga) != "aaaa" || string(gb) != "bbbb" {
		t.Fatalf("contents mixed: %q %q", ga, gb)
	}
}
