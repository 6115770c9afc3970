// Package naming implements the RHODOS naming service (§3): evaluation and
// resolution of attributed names to system names.
//
// Processes refer to devices (TTY objects) and files (FILE objects) by
// attributed names — sets of attribute=value pairs such as
// {type=FILE, path=/reports/q3}. The agents and services refer to the same
// objects by their system names. The naming service owns the mapping, is the
// first of the three steps of data location (§5: "locate the file service
// which manages the file" — each entry records its managing service), and
// resolves names idempotently, so retried resolution messages are harmless.
//
// A directory view is provided over the conventional "path" attribute:
// List("/reports") enumerates entries one level below.
package naming

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// ObjectType classifies named objects.
type ObjectType int

// Object types.
const (
	// FileObject is a FILE object, resolved to a file system name.
	FileObject ObjectType = iota + 1
	// DeviceObject is a TTY object, resolved to a device system name.
	DeviceObject
)

// String implements fmt.Stringer.
func (t ObjectType) String() string {
	switch t {
	case FileObject:
		return "FILE"
	case DeviceObject:
		return "TTY"
	default:
		return fmt.Sprintf("ObjectType(%d)", int(t))
	}
}

// Name is an attributed name: a set of attribute=value pairs.
type Name map[string]string

// String renders the name canonically (sorted attributes).
func (n Name) String() string {
	keys := make([]string, 0, len(n))
	for k := range n {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, k+"="+n[k])
	}
	return strings.Join(parts, ",")
}

// Matches reports whether every attribute of query is present with the same
// value in n.
func (n Name) Matches(query Name) bool {
	for k, v := range query {
		if n[k] != v {
			return false
		}
	}
	return true
}

// clone copies a name.
func (n Name) clone() Name {
	out := make(Name, len(n))
	for k, v := range n {
		out[k] = v
	}
	return out
}

// Entry is one registered object.
type Entry struct {
	Name Name
	Type ObjectType
	// SystemName is the object's system-level identifier: a FileID for FILE
	// objects, a device number for TTY objects.
	SystemName uint64
	// Service identifies the service instance managing the object (the
	// "first step" of data location, §5); e.g. a file-service or replica
	// group name.
	Service string
}

// Errors.
var (
	ErrNotFound  = errors.New("naming: no entry matches")
	ErrAmbiguous = errors.New("naming: attributed name matches multiple entries")
	ErrExists    = errors.New("naming: entry already registered")
)

// IsExists reports whether err means ErrExists, including after the error
// has crossed an rpc boundary and survives only as message text.
func IsExists(err error) bool {
	return err != nil && (errors.Is(err, ErrExists) || strings.Contains(err.Error(), ErrExists.Error()))
}

// Service is a naming service. It is safe for concurrent use.
//
// Entries are indexed three ways under the one mutex, so registration,
// resolution by path and removal cost the same however many names exist:
// by canonical name (duplicate check, Unregister), by path attribute
// (Resolve narrows to these candidates before matching the rest of the
// query) and by (type, system name) (UnregisterSystemName). Queries without
// a path attribute, and List, scan every entry.
type Service struct {
	mu     sync.Mutex
	seq    uint64 // registration counter; orders Entries
	byName map[string]*record
	byPath map[string][]*record
	bySys  map[sysKey][]*record
}

// record is one registered entry plus its index keys.
type record struct {
	Entry
	key string // canonical name
	seq uint64
}

type sysKey struct {
	t   ObjectType
	sys uint64
}

// NewService returns an empty naming service.
func NewService() *Service {
	return &Service{
		byName: make(map[string]*record),
		byPath: make(map[string][]*record),
		bySys:  make(map[sysKey][]*record),
	}
}

// Register adds an entry. An entry with an identical attributed name may be
// registered only once.
func (s *Service) Register(e Entry) error {
	if len(e.Name) == 0 {
		return errors.New("naming: empty name")
	}
	key := e.Name.String()
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.byName[key]; ok {
		return fmt.Errorf("%w: %s", ErrExists, key)
	}
	e.Name = e.Name.clone()
	s.seq++
	r := &record{Entry: e, key: key, seq: s.seq}
	s.byName[key] = r
	if p := e.Name["path"]; p != "" {
		s.byPath[p] = append(s.byPath[p], r)
	}
	sk := sysKey{e.Type, e.SystemName}
	s.bySys[sk] = append(s.bySys[sk], r)
	return nil
}

// removeLocked drops r from every index.
func (s *Service) removeLocked(r *record) {
	delete(s.byName, r.key)
	if p := r.Name["path"]; p != "" {
		dropRecord(s.byPath, p, r)
	}
	dropRecord(s.bySys, sysKey{r.Type, r.SystemName}, r)
}

// dropRecord removes r from the slice under key k, deleting the key when the
// slice empties.
func dropRecord[K comparable](idx map[K][]*record, k K, r *record) {
	rs := idx[k]
	for i, cur := range rs {
		if cur == r {
			rs = append(rs[:i], rs[i+1:]...)
			break
		}
	}
	if len(rs) == 0 {
		delete(idx, k)
	} else {
		idx[k] = rs
	}
}

// Resolve evaluates an attributed name: the query's attributes must select
// exactly one entry.
func (s *Service) Resolve(query Name) (Entry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var found *record
	matches := 0
	// An empty path value also matches entries with no path attribute, so
	// only a non-empty one narrows the candidates.
	if p := query["path"]; p != "" {
		for _, r := range s.byPath[p] {
			if r.Name.Matches(query) {
				found, matches = r, matches+1
			}
		}
	} else {
		for _, r := range s.byName {
			if r.Name.Matches(query) {
				found, matches = r, matches+1
			}
		}
	}
	switch matches {
	case 0:
		return Entry{}, fmt.Errorf("%w: %s", ErrNotFound, query)
	case 1:
		return found.Entry, nil
	default:
		return Entry{}, fmt.Errorf("%w: %s (%d matches)", ErrAmbiguous, query, matches)
	}
}

// ResolvePath resolves the common case: a FILE object by its path
// attribute, answering as Resolve(Name{"type": "FILE", "path": path}) does.
// The one FILE entry under a non-empty path is read from the path index
// without building that query; every other answer — no entry, several, or
// the empty path, which also matches entries without a path attribute —
// comes from Resolve, error text included.
func (s *Service) ResolvePath(path string) (Entry, error) {
	if e, ok := s.onlyFile(path); ok {
		return e, nil
	}
	return s.Resolve(Name{"type": "FILE", "path": path})
}

// onlyFile returns the entry when exactly one FILE entry is registered
// under the non-empty path.
func (s *Service) onlyFile(path string) (Entry, bool) {
	if path == "" {
		return Entry{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var found *record
	for _, r := range s.byPath[path] {
		if r.Name["type"] != "FILE" {
			continue
		}
		if found != nil {
			return Entry{}, false
		}
		found = r
	}
	if found == nil {
		return Entry{}, false
	}
	return found.Entry, true
}

// UnregisterSystemName removes every entry with the given type and system
// name (used when a file is deleted).
func (s *Service) UnregisterSystemName(t ObjectType, sys uint64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	rs := append([]*record(nil), s.bySys[sysKey{t, sys}]...)
	for _, r := range rs {
		s.removeLocked(r)
	}
	return len(rs)
}

// List returns the names one level below dir in the path hierarchy, sorted.
// Entries without a path attribute are invisible to List.
func (s *Service) List(dir string) []string {
	dir = strings.TrimSuffix(dir, "/")
	prefix := dir + "/"
	s.mu.Lock()
	defer s.mu.Unlock()
	seen := map[string]bool{}
	for _, e := range s.byName {
		p, ok := e.Name["path"]
		if !ok || !strings.HasPrefix(p, prefix) {
			continue
		}
		rest := strings.TrimPrefix(p, prefix)
		if rest == "" {
			continue
		}
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			seen[rest[:i]+"/"] = true
		} else {
			seen[rest] = true
		}
	}
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Entries returns a snapshot of all entries in registration order
// (diagnostics).
func (s *Service) Entries() []Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	rs := make([]*record, 0, len(s.byName))
	for _, r := range s.byName {
		rs = append(rs, r)
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].seq < rs[j].seq })
	out := make([]Entry, len(rs))
	for i, r := range rs {
		out[i] = r.Entry
	}
	return out
}
