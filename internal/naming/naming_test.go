package naming

import (
	"errors"
	"fmt"
	"testing"
)

func fileEntry(path string, sys uint64) Entry {
	return Entry{
		Name:       Name{"type": "FILE", "path": path},
		Type:       FileObject,
		SystemName: sys,
		Service:    "fs0",
	}
}

func TestNameStringCanonical(t *testing.T) {
	a := Name{"b": "2", "a": "1"}
	if a.String() != "a=1,b=2" {
		t.Fatalf("String = %q", a.String())
	}
}

func TestRegisterResolve(t *testing.T) {
	s := NewService()
	if err := s.Register(fileEntry("/docs/report", 7)); err != nil {
		t.Fatal(err)
	}
	e, err := s.ResolvePath("/docs/report")
	if err != nil {
		t.Fatal(err)
	}
	if e.SystemName != 7 || e.Service != "fs0" {
		t.Fatalf("Resolve = %+v", e)
	}
	// Resolution is idempotent: resolving again gives the same answer.
	e2, err := s.ResolvePath("/docs/report")
	if err != nil || e2.SystemName != e.SystemName {
		t.Fatalf("second resolve = %+v, %v", e2, err)
	}
}

func TestResolveByPartialAttributes(t *testing.T) {
	s := NewService()
	if err := s.Register(Entry{
		Name: Name{"type": "FILE", "path": "/a", "owner": "bob"}, Type: FileObject, SystemName: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Register(Entry{
		Name: Name{"type": "FILE", "path": "/b", "owner": "bob"}, Type: FileObject, SystemName: 2,
	}); err != nil {
		t.Fatal(err)
	}
	// Unique subset resolves.
	e, err := s.Resolve(Name{"path": "/a"})
	if err != nil || e.SystemName != 1 {
		t.Fatalf("subset resolve = %+v, %v", e, err)
	}
	// Ambiguous subset fails.
	if _, err := s.Resolve(Name{"owner": "bob"}); !errors.Is(err, ErrAmbiguous) {
		t.Fatalf("ambiguous resolve = %v", err)
	}
	// No match fails.
	if _, err := s.Resolve(Name{"owner": "eve"}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing resolve = %v", err)
	}
}

func TestDuplicateRegistration(t *testing.T) {
	s := NewService()
	if err := s.Register(fileEntry("/x", 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Register(fileEntry("/x", 2)); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate register = %v", err)
	}
}

func TestUnregister(t *testing.T) {
	s := NewService()
	e := fileEntry("/x", 1)
	if err := s.Register(e); err != nil {
		t.Fatal(err)
	}
	if err := s.Unregister(e.Name); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ResolvePath("/x"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("resolve after unregister = %v", err)
	}
	if err := s.Unregister(e.Name); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double unregister = %v", err)
	}
}

func TestUnregisterSystemName(t *testing.T) {
	s := NewService()
	if err := s.Register(fileEntry("/x", 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Register(Entry{
		Name: Name{"type": "FILE", "alias": "xx"}, Type: FileObject, SystemName: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Register(Entry{
		Name: Name{"type": "TTY", "dev": "console"}, Type: DeviceObject, SystemName: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if got := s.UnregisterSystemName(FileObject, 1); got != 2 {
		t.Fatalf("UnregisterSystemName removed %d, want 2", got)
	}
	// The TTY with the same system name is untouched.
	if _, err := s.Resolve(Name{"dev": "console"}); err != nil {
		t.Fatalf("device entry lost: %v", err)
	}
}

func TestList(t *testing.T) {
	s := NewService()
	for i, p := range []string{"/a/one", "/a/two", "/a/sub/deep", "/b/other"} {
		if err := s.Register(fileEntry(p, uint64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	got := s.List("/a")
	want := []string{"one", "sub/", "two"}
	if len(got) != len(want) {
		t.Fatalf("List = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("List = %v, want %v", got, want)
		}
	}
	if got := s.List("/nope"); len(got) != 0 {
		t.Fatalf("List of empty dir = %v", got)
	}
	// Trailing slash tolerated.
	if got := s.List("/a/"); len(got) != 3 {
		t.Fatalf("List with trailing slash = %v", got)
	}
}

func TestEntriesSnapshotAndLen(t *testing.T) {
	s := NewService()
	for i := 0; i < 5; i++ {
		if err := s.Register(fileEntry(fmt.Sprintf("/f%d", i), uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 5 {
		t.Fatalf("Len = %d", s.Len())
	}
	snap := s.Entries()
	snap[0].SystemName = 999
	e, err := s.ResolvePath("/f0")
	if err != nil || e.SystemName == 999 {
		t.Fatal("Entries snapshot aliases internal state")
	}
}

func TestRegisterNameIsolation(t *testing.T) {
	s := NewService()
	n := Name{"type": "FILE", "path": "/mut"}
	if err := s.Register(Entry{Name: n, Type: FileObject, SystemName: 1}); err != nil {
		t.Fatal(err)
	}
	n["path"] = "/changed" // mutate caller's map after registration
	if _, err := s.ResolvePath("/mut"); err != nil {
		t.Fatalf("registration aliased caller's name map: %v", err)
	}
}

func TestObjectTypeString(t *testing.T) {
	if FileObject.String() != "FILE" || DeviceObject.String() != "TTY" {
		t.Fatal("type strings wrong")
	}
}
