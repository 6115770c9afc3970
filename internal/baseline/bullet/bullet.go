// Package bullet implements a comparator modeled on Amoeba's Bullet server,
// which the paper singles out in §1: a whole-file server with *no caching in
// the client machine*. Files are immutable and stored contiguously; every
// read transfers the entire file from the disk, every time.
//
// It is the contrast case for the caching experiments (E6): per-operation
// the Bullet design is excellent (one disk reference per whole-file read),
// but re-reads pay the full disk cost that RHODOS's agent/file-service/disk
// caches absorb.
package bullet

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/device"
	"repro/internal/freespace"
)

// FileID identifies an immutable file.
type FileID uint64

// Errors.
var (
	ErrNotFound = errors.New("bullet: no such file")
	ErrNoSpace  = errors.New("bullet: no contiguous space")
	ErrEmpty    = errors.New("bullet: empty file")
)

type fileInfo struct {
	addr  int // first fragment
	frags int
	size  int
}

// Server is a Bullet-style file server. It is safe for concurrent use.
type Server struct {
	disk *device.Disk

	mu     sync.Mutex
	alloc  *freespace.Map
	files  map[FileID]fileInfo
	nextID FileID
}

// New creates a server over a drive.
func New(disk *device.Disk) (*Server, error) {
	if disk == nil {
		return nil, errors.New("bullet: nil disk")
	}
	alloc, err := freespace.NewMap(disk.Geometry().Capacity())
	if err != nil {
		return nil, err
	}
	return &Server{disk: disk, alloc: alloc, files: make(map[FileID]fileInfo)}, nil
}

// Create stores an immutable file contiguously and returns its ID. The
// whole file is written with one disk reference.
func (s *Server) Create(data []byte) (FileID, error) {
	if len(data) == 0 {
		return 0, ErrEmpty
	}
	frags := (len(data) + device.FragmentSize - 1) / device.FragmentSize
	s.mu.Lock()
	defer s.mu.Unlock()
	addr, err := s.alloc.Allocate(frags)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrNoSpace, err)
	}
	buf := make([]byte, frags*device.FragmentSize)
	copy(buf, data)
	if err := s.disk.WriteFragments(context.Background(), addr, buf); err != nil {
		_ = s.alloc.Free(addr, frags)
		return 0, err
	}
	s.nextID++
	s.files[s.nextID] = fileInfo{addr: addr, frags: frags, size: len(data)}
	return s.nextID, nil
}

// Read transfers the whole file from the disk — there is no cache at any
// level, which is precisely the §1 criticism this baseline reproduces.
func (s *Server) Read(id FileID) ([]byte, error) {
	s.mu.Lock()
	fi, ok := s.files[id]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNotFound, id)
	}
	raw, err := s.disk.ReadFragments(context.Background(), fi.addr, fi.frags)
	if err != nil {
		return nil, err
	}
	return raw[:fi.size], nil
}
