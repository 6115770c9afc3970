package naming

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// model is the naive naming service the indexed one must be
// indistinguishable from: one slice in registration order, every operation a
// linear scan.
type model struct{ entries []Entry }

func (m *model) register(e Entry) error {
	for _, cur := range m.entries {
		if cur.Name.String() == e.Name.String() {
			return ErrExists
		}
	}
	e.Name = e.Name.clone()
	m.entries = append(m.entries, e)
	return nil
}

func (m *model) resolve(q Name) (Entry, error) {
	var found []Entry
	for _, e := range m.entries {
		if e.Name.Matches(q) {
			found = append(found, e)
		}
	}
	switch len(found) {
	case 0:
		return Entry{}, ErrNotFound
	case 1:
		return found[0], nil
	}
	return Entry{}, fmt.Errorf("%w (%d matches)", ErrAmbiguous, len(found))
}

func (m *model) unregister(n Name) error {
	for i, e := range m.entries {
		if e.Name.String() == n.String() {
			m.entries = append(m.entries[:i], m.entries[i+1:]...)
			return nil
		}
	}
	return ErrNotFound
}

func (m *model) unregisterSys(t ObjectType, sys uint64) int {
	kept, removed := m.entries[:0], 0
	for _, e := range m.entries {
		if e.Type == t && e.SystemName == sys {
			removed++
			continue
		}
		kept = append(kept, e)
	}
	m.entries = kept
	return removed
}

func (m *model) list(dir string) []string {
	prefix := strings.TrimSuffix(dir, "/") + "/"
	seen := map[string]bool{}
	for _, e := range m.entries {
		p, ok := e.Name["path"]
		if !ok || !strings.HasPrefix(p, prefix) || p == prefix {
			continue
		}
		rest := p[len(prefix):]
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			rest = rest[:i+1]
		}
		seen[rest] = true
	}
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// sameOutcome compares two results by error class; ambiguity also by its
// match count, which is part of the message.
func sameOutcome(a, b error) bool {
	for _, class := range []error{ErrNotFound, ErrAmbiguous, ErrExists} {
		if errors.Is(a, class) != errors.Is(b, class) {
			return false
		}
	}
	if errors.Is(a, ErrAmbiguous) {
		return a.Error()[strings.LastIndex(a.Error(), "("):] == b.Error()[strings.LastIndex(b.Error(), "("):]
	}
	return (a == nil) == (b == nil)
}

// TestModelEquivalence drives random operations against the service and the
// linear-scan model over a small universe, so duplicate registrations,
// several entries under one path, pathless (TTY) entries, ambiguous and
// not-found queries all occur.
func TestModelEquivalence(t *testing.T) {
	paths := []string{"/a/x", "/a/y", "/a/sub/z", "/b/x", "/b", "/c/deep/er/f", ""}
	owners := []string{"", "alice", "bob"}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s, m := NewService(), &model{}
		randName := func() Name {
			if rng.Intn(6) == 0 { // a device: no path attribute
				return Name{"type": "TTY", "line": fmt.Sprint(rng.Intn(3))}
			}
			n := Name{"type": "FILE", "path": paths[rng.Intn(len(paths))]}
			if o := owners[rng.Intn(len(owners))]; o != "" {
				n["owner"] = o
			}
			return n
		}
		randQuery := func() Name {
			q := randName()
			for k := range q {
				if rng.Intn(3) == 0 {
					delete(q, k)
				}
			}
			return q
		}
		for step := 0; step < 4000; step++ {
			ctx := fmt.Sprintf("seed %d step %d", seed, step)
			switch op := rng.Intn(10); {
			case op < 3:
				n := randName()
				e := Entry{Name: n, Type: FileObject, SystemName: uint64(rng.Intn(12)), Service: "fs0"}
				if n["type"] == "TTY" {
					e.Type = DeviceObject
				}
				if got, want := s.Register(e), m.register(e); !sameOutcome(got, want) {
					t.Fatalf("%s: Register(%v) = %v, model %v", ctx, n, got, want)
				}
			case op < 6:
				q := randQuery()
				got, gerr := s.Resolve(q)
				want, werr := m.resolve(q)
				if !sameOutcome(gerr, werr) || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: Resolve(%v) = %+v, %v; model %+v, %v", ctx, q, got, gerr, want, werr)
				}
			case op < 7:
				p := paths[rng.Intn(len(paths))]
				got, gerr := s.ResolvePath(p)
				want, werr := m.resolve(Name{"type": "FILE", "path": p})
				if !sameOutcome(gerr, werr) || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: ResolvePath(%q) = %+v, %v; model %+v, %v", ctx, p, got, gerr, want, werr)
				}
			case op < 8:
				n := randName()
				if got, want := s.Unregister(n), m.unregister(n); !sameOutcome(got, want) {
					t.Fatalf("%s: Unregister(%v) = %v, model %v", ctx, n, got, want)
				}
			case op < 9:
				typ, sys := ObjectType(1+rng.Intn(2)), uint64(rng.Intn(12))
				if got, want := s.UnregisterSystemName(typ, sys), m.unregisterSys(typ, sys); got != want {
					t.Fatalf("%s: UnregisterSystemName(%v, %d) = %d, model %d", ctx, typ, sys, got, want)
				}
			default:
				dir := []string{"/", "/a", "/a/", "/b", "/c/deep", "/none"}[rng.Intn(6)]
				if got, want := s.List(dir), m.list(dir); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: List(%q) = %v, model %v", ctx, dir, got, want)
				}
			}
			if got, want := s.Entries(), m.entries; s.Len() != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("%s: Entries = %v, model %v", ctx, got, want)
			}
		}
	}
}

// TestResolvePathMatchesResolve: ResolvePath reads the path index itself and
// must answer exactly as the general query it abbreviates — the same entry,
// or the same error class and the same error text — for a path with one
// FILE entry, none, several (ambiguous), one beside a non-FILE entry of the
// same path, and the empty path, which also matches pathless entries.
func TestResolvePathMatchesResolve(t *testing.T) {
	paths := []string{"/a", "/a/b", "/dev/tty0", "", "/none"}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewService()
		for step := 0; step < 600; step++ {
			p := paths[rng.Intn(len(paths))]
			n := Name{"type": []string{"FILE", "FILE", "TTY"}[rng.Intn(3)]}
			if rng.Intn(5) > 0 {
				n["path"] = p
			}
			if rng.Intn(2) == 0 {
				n["owner"] = fmt.Sprint(rng.Intn(3))
			}
			if rng.Intn(4) == 0 {
				_ = s.Unregister(n)
			} else {
				_ = s.Register(Entry{Name: n, Type: FileObject, SystemName: uint64(step)})
			}
			for _, q := range paths {
				got, gerr := s.ResolvePath(q)
				want, werr := s.Resolve(Name{"type": "FILE", "path": q})
				if !reflect.DeepEqual(got, want) || (gerr == nil) != (werr == nil) ||
					gerr != nil && (gerr.Error() != werr.Error() || !sameOutcome(gerr, werr)) {
					t.Fatalf("seed %d step %d: ResolvePath(%q) = %+v, %v; Resolve = %+v, %v", seed, step, q, got, gerr, want, werr)
				}
			}
		}
	}
	// Each case at least once, on a fixed namespace.
	s := NewService()
	for i, n := range []Name{
		{"type": "FILE", "path": "/one"},
		{"type": "FILE", "path": "/two", "owner": "a"},
		{"type": "FILE", "path": "/two", "owner": "b"},
		{"type": "TTY", "path": "/one"},
		{"type": "TTY", "path": "/tty"},
		{"type": "FILE", "owner": "pathless"},
	} {
		if err := s.Register(Entry{Name: n, Type: FileObject, SystemName: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for p, class := range map[string]error{"/one": nil, "/two": ErrAmbiguous, "/tty": ErrNotFound, "/none": ErrNotFound, "": nil} {
		_, err := s.ResolvePath(p)
		if class == nil && err != nil || class != nil && !errors.Is(err, class) {
			t.Errorf("ResolvePath(%q) = %v, want %v", p, err, class)
		}
	}
}

// BenchmarkRegister measures one Register (plus the Unregister that keeps
// the population constant) in a namespace of the given size; the cost must
// not grow with it.
func BenchmarkRegister(b *testing.B) {
	for _, n := range []int{100, 10000} {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			s := NewService()
			for i := 0; i < n; i++ {
				if err := s.Register(fileEntry(fmt.Sprintf("/d%d/f%d", i%8, i), uint64(i))); err != nil {
					b.Fatal(err)
				}
			}
			e := fileEntry("/d0/new", uint64(n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Register(e); err != nil {
					b.Fatal(err)
				}
				if s.UnregisterSystemName(FileObject, e.SystemName) != 1 {
					b.Fatal("entry not removed")
				}
			}
		})
	}
}
