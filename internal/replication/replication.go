// Package replication implements the replication service of the RHODOS
// architecture (Fig. 1): file replication across file services, satisfying
// the reliability goal that the design "must have the provision to support
// the concept of file replication" (§2.1).
//
// The scheme is primary-copy with synchronous write-all / read-one: a
// replicated file has one physical file per replica file service; writes go
// to every healthy replica, reads are served by the first healthy one.
// A replica that misses writes while failed is marked stale per file and is
// brought back with Repair, which resynchronizes stale files from a healthy
// copy.
package replication

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/fileservice"
	"repro/internal/fit"
)

// RepID identifies a replicated file.
type RepID uint64

// Errors.
var (
	ErrNotFound    = errors.New("replication: no such replicated file")
	ErrNoReplicas  = errors.New("replication: no healthy replica")
	ErrBadReplica  = errors.New("replication: bad replica index")
	ErrAllReplicas = errors.New("replication: all replicas failed")
)

// rfile is one replicated file: a physical file per replica.
type rfile struct {
	ids   []fileservice.FileID
	stale []bool // per replica: missed one or more writes
}

// Manager is the replication service over a fixed set of replica file
// services. It is safe for concurrent use.
type Manager struct {
	replicas []*fileservice.Service

	mu     sync.Mutex
	failed []bool
	files  map[RepID]*rfile
	nextID RepID
}

// NewManager creates a replication manager; at least one replica is
// required.
func NewManager(replicas []*fileservice.Service) (*Manager, error) {
	if len(replicas) == 0 {
		return nil, errors.New("replication: no replicas")
	}
	return &Manager{
		replicas: replicas,
		failed:   make([]bool, len(replicas)),
		files:    make(map[RepID]*rfile),
	}, nil
}

// Create makes a replicated file on every replica.
func (m *Manager) Create(attr fit.Attributes) (RepID, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rf := &rfile{stale: make([]bool, len(m.replicas))}
	for i, fs := range m.replicas {
		id, err := fs.Create(attr)
		if err != nil {
			// Roll back the partial create.
			for j, created := range rf.ids {
				_ = m.replicas[j].Delete(created)
			}
			return 0, fmt.Errorf("replication: create on replica %d: %w", i, err)
		}
		rf.ids = append(rf.ids, id)
	}
	m.nextID++
	m.files[m.nextID] = rf
	return m.nextID, nil
}

// WriteAt writes to every healthy replica (write-all). Failed replicas are
// skipped and marked stale for this file; the write succeeds as long as at
// least one replica accepts it.
func (m *Manager) WriteAt(id RepID, off int64, data []byte) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rf, ok := m.files[id]
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrNotFound, id)
	}
	wrote := -1
	for i, fs := range m.replicas {
		if m.failed[i] {
			rf.stale[i] = true
			continue
		}
		n, err := fs.WriteAtCtx(context.Background(), rf.ids[i], off, data)
		if err != nil {
			// The replica failed mid-write: mark it down and stale.
			m.failed[i] = true
			rf.stale[i] = true
			continue
		}
		wrote = n
	}
	if wrote < 0 {
		return 0, ErrAllReplicas
	}
	return wrote, nil
}

// ReadAt reads from the first healthy, non-stale replica (read-one),
// failing over when a replica errors mid-read.
func (m *Manager) ReadAt(id RepID, off int64, n int) ([]byte, error) {
	m.mu.Lock()
	rf, ok := m.files[id]
	if !ok {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w: %d", ErrNotFound, id)
	}
	type candidate struct {
		idx int
		fid fileservice.FileID
	}
	var cands []candidate
	for i := range m.replicas {
		if !m.failed[i] && !rf.stale[i] {
			cands = append(cands, candidate{i, rf.ids[i]})
		}
	}
	m.mu.Unlock()
	var lastErr error
	for _, c := range cands {
		data, err := m.replicas[c.idx].ReadAtCtx(context.Background(), c.fid, off, n)
		if err == nil {
			return data, nil
		}
		lastErr = err
		m.mu.Lock()
		m.failed[c.idx] = true
		m.mu.Unlock()
	}
	if lastErr != nil {
		return nil, fmt.Errorf("%w: last error: %v", ErrNoReplicas, lastErr)
	}
	return nil, ErrNoReplicas
}

// Size returns the replicated file's size from a healthy replica.
func (m *Manager) Size(id RepID) (int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rf, ok := m.files[id]
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrNotFound, id)
	}
	for i, fs := range m.replicas {
		if m.failed[i] || rf.stale[i] {
			continue
		}
		return fs.Size(rf.ids[i])
	}
	return 0, ErrNoReplicas
}

// Delete removes the file from every healthy replica.
func (m *Manager) Delete(id RepID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	rf, ok := m.files[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNotFound, id)
	}
	var firstErr error
	for i, fs := range m.replicas {
		if m.failed[i] {
			continue
		}
		if err := fs.Delete(rf.ids[i]); err != nil && firstErr == nil &&
			!errors.Is(err, fileservice.ErrNotFound) {
			firstErr = err
		}
	}
	delete(m.files, id)
	return firstErr
}

// Repair brings a replica back: every file stale on it is resynchronized
// from a healthy copy, then the replica rejoins.
func (m *Manager) Repair(i int) error {
	if i < 0 || i >= len(m.replicas) {
		return ErrBadReplica
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for id, rf := range m.files {
		if !rf.stale[i] {
			continue
		}
		if err := m.resyncLocked(rf, i); err != nil {
			return fmt.Errorf("replication: resyncing file %d: %w", id, err)
		}
		rf.stale[i] = false
	}
	m.failed[i] = false
	return nil
}

// resyncLocked copies a file's content from the first healthy fresh replica
// to replica dst.
func (m *Manager) resyncLocked(rf *rfile, dst int) error {
	src := -1
	for j := range m.replicas {
		if j != dst && !m.failed[j] && !rf.stale[j] {
			src = j
			break
		}
	}
	if src < 0 {
		return ErrNoReplicas
	}
	size, err := m.replicas[src].Size(rf.ids[src])
	if err != nil {
		return err
	}
	if err := m.replicas[dst].Truncate(rf.ids[dst], 0); err != nil {
		return err
	}
	const chunk = 64 * 1024
	for off := int64(0); off < size; off += chunk {
		data, err := m.replicas[src].ReadAtCtx(context.Background(), rf.ids[src], off, chunk)
		if err != nil {
			return err
		}
		if len(data) == 0 {
			break
		}
		if _, err := m.replicas[dst].WriteAtCtx(context.Background(), rf.ids[dst], off, data); err != nil {
			return err
		}
	}
	return nil
}

// StaleCount returns how many (file, replica) pairs are stale (diagnostic).
func (m *Manager) StaleCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, rf := range m.files {
		for _, s := range rf.stale {
			if s {
				n++
			}
		}
	}
	return n
}

// ReplicaFileID exposes the physical file behind one replica (diagnostics
// and tests).
func (m *Manager) ReplicaFileID(id RepID, replica int) (fileservice.FileID, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rf, ok := m.files[id]
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrNotFound, id)
	}
	if replica < 0 || replica >= len(rf.ids) {
		return 0, ErrBadReplica
	}
	return rf.ids[replica], nil
}
