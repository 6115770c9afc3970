// Package unixfs implements the conventional file system the paper's design
// claims are implicitly measured against: fixed 8 KB blocks with no
// fragments, inodes in a fixed area at the start of the disk, 12 direct
// block pointers plus an indirect block, first-fit bitmap allocation, and —
// crucially — no contiguity counts: every data block costs its own disk
// reference, and every access descends inode → (indirect) → block.
//
// It is the baseline for E1 (disk references vs file size), E3 (whole-block
// metadata vs fragments), E4 (first-fit scan vs the run table) and E11
// (fixed inode area vs dynamically placed FITs).
package unixfs

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"repro/internal/device"
	"repro/internal/freespace"
)

// Layout constants.
const (
	BlockSize         = device.BlockSize
	FragmentsPerBlock = device.FragmentsPerBlock

	// DirectPointers is the classic dozen.
	DirectPointers = 12
	// PointersPerIndirect is the capacity of one indirect block.
	PointersPerIndirect = BlockSize / 4

	// inodeSize is the on-disk inode footprint. Conventional systems store
	// inodes in whole blocks in a fixed area; we pack 64 per block.
	inodeSize      = 128
	inodesPerBlock = BlockSize / inodeSize
)

// Ino is an inode number.
type Ino uint32

// Errors.
var (
	ErrNotFound  = errors.New("unixfs: no such file")
	ErrNoSpace   = errors.New("unixfs: no space")
	ErrTooLarge  = errors.New("unixfs: file exceeds direct+indirect capacity")
	ErrBadOffset = errors.New("unixfs: negative offset")
	ErrNoInodes  = errors.New("unixfs: inode area full")
)

// FS is a conventional block file system over one drive. It is safe for
// concurrent use.
type FS struct {
	disk      *device.Disk
	inodeBase int // fragment address of the inode area
	inodeBlks int // inode area length in blocks
	maxInodes int

	mu    sync.Mutex
	alloc *freespace.Map
	used  map[Ino]bool
	next  Ino
}

// Format creates a file system on the drive, reserving an inode area at the
// start sized for maxFiles inodes.
func Format(disk *device.Disk, maxFiles int) (*FS, error) {
	if disk == nil {
		return nil, errors.New("unixfs: nil disk")
	}
	if maxFiles <= 0 {
		maxFiles = 256
	}
	alloc, err := freespace.NewMap(disk.Geometry().Capacity())
	if err != nil {
		return nil, err
	}
	inodeBlks := (maxFiles + inodesPerBlock - 1) / inodesPerBlock
	fs := &FS{
		disk:      disk,
		inodeBase: 0,
		inodeBlks: inodeBlks,
		maxInodes: inodeBlks * inodesPerBlock,
		alloc:     alloc,
		used:      make(map[Ino]bool),
	}
	if err := alloc.AllocateAt(0, inodeBlks*FragmentsPerBlock); err != nil {
		return nil, fmt.Errorf("unixfs: reserving inode area: %w", err)
	}
	return fs, nil
}

// inode is the decoded on-disk inode.
type inode struct {
	size     uint64
	direct   [DirectPointers]uint32 // fragment addresses (0 = unset)
	indirect uint32
}

// inodeLoc returns the fragment address and byte offset of an inode.
func (f *FS) inodeLoc(ino Ino) (frag int, off int) {
	byteOff := int(ino) * inodeSize
	return f.inodeBase + byteOff/device.FragmentSize, byteOff % device.FragmentSize
}

// readInode costs one disk reference into the fixed inode area.
func (f *FS) readInode(ino Ino) (*inode, error) {
	frag, off := f.inodeLoc(ino)
	raw, err := f.disk.ReadFragments(context.Background(), frag, 1)
	if err != nil {
		return nil, err
	}
	b := raw[off : off+inodeSize]
	var in inode
	in.size = binary.BigEndian.Uint64(b[0:])
	for i := 0; i < DirectPointers; i++ {
		in.direct[i] = binary.BigEndian.Uint32(b[8+i*4:])
	}
	in.indirect = binary.BigEndian.Uint32(b[8+DirectPointers*4:])
	return &in, nil
}

// writeInode costs one disk reference (read-modify-write of the fragment).
func (f *FS) writeInode(ino Ino, in *inode) error {
	frag, off := f.inodeLoc(ino)
	raw, err := f.disk.ReadFragments(context.Background(), frag, 1)
	if err != nil {
		return err
	}
	b := raw[off : off+inodeSize]
	binary.BigEndian.PutUint64(b[0:], in.size)
	for i := 0; i < DirectPointers; i++ {
		binary.BigEndian.PutUint32(b[8+i*4:], in.direct[i])
	}
	binary.BigEndian.PutUint32(b[8+DirectPointers*4:], in.indirect)
	return f.disk.WriteFragments(context.Background(), frag, raw)
}

// Create allocates an inode.
func (f *FS) Create() (Ino, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for tries := 0; tries < f.maxInodes; tries++ {
		ino := f.next
		f.next = (f.next + 1) % Ino(f.maxInodes)
		if !f.used[ino] {
			f.used[ino] = true
			if err := f.writeInode(ino, &inode{}); err != nil {
				delete(f.used, ino)
				return 0, err
			}
			return ino, nil
		}
	}
	return 0, ErrNoInodes
}

// allocBlock first-fits one 8 KB block (4 fragments), unaligned and with no
// attempt at contiguity — the conventional behaviour the paper improves on.
func (f *FS) allocBlock() (uint32, error) {
	addr, err := f.alloc.AllocateFirstFit(FragmentsPerBlock)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrNoSpace, err)
	}
	return uint32(addr), nil
}

// blockAddr maps a logical block index through the inode, reading the
// indirect block (one extra disk reference) when needed. alloc extends the
// mapping.
func (f *FS) blockAddr(in *inode, blk int, alloc bool, dirty *bool) (uint32, error) {
	if blk < DirectPointers {
		if in.direct[blk] == 0 {
			if !alloc {
				return 0, fmt.Errorf("unixfs: hole at block %d", blk)
			}
			a, err := f.allocBlock()
			if err != nil {
				return 0, err
			}
			in.direct[blk] = a
			*dirty = true
		}
		return in.direct[blk], nil
	}
	idx := blk - DirectPointers
	if idx >= PointersPerIndirect {
		return 0, ErrTooLarge
	}
	if in.indirect == 0 {
		if !alloc {
			return 0, fmt.Errorf("unixfs: hole at block %d", blk)
		}
		a, err := f.allocBlock()
		if err != nil {
			return 0, err
		}
		if err := f.disk.WriteFragments(context.Background(), int(a), make([]byte, BlockSize)); err != nil {
			return 0, err
		}
		in.indirect = a
		*dirty = true
	}
	// One disk reference to read the indirect block.
	raw, err := f.disk.ReadFragments(context.Background(), int(in.indirect), FragmentsPerBlock)
	if err != nil {
		return 0, err
	}
	ptr := binary.BigEndian.Uint32(raw[idx*4:])
	if ptr == 0 {
		if !alloc {
			return 0, fmt.Errorf("unixfs: hole at block %d", blk)
		}
		a, err := f.allocBlock()
		if err != nil {
			return 0, err
		}
		binary.BigEndian.PutUint32(raw[idx*4:], a)
		if err := f.disk.WriteFragments(context.Background(), int(in.indirect), raw); err != nil {
			return 0, err
		}
		ptr = a
	}
	return ptr, nil
}

// ReadAt reads n bytes at off. Every data block costs one disk reference —
// there is no contiguity count and no cache.
func (f *FS) ReadAt(ino Ino, off int64, n int) ([]byte, error) {
	if off < 0 {
		return nil, ErrBadOffset
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.used[ino] {
		return nil, fmt.Errorf("%w: %d", ErrNotFound, ino)
	}
	in, err := f.readInode(ino)
	if err != nil {
		return nil, err
	}
	size := int64(in.size)
	if off >= size {
		return nil, nil
	}
	if off+int64(n) > size {
		n = int(size - off)
	}
	out := make([]byte, n)
	covered := 0
	var dirty bool
	for covered < n {
		pos := off + int64(covered)
		blk := int(pos / BlockSize)
		within := int(pos % BlockSize)
		addr, err := f.blockAddr(in, blk, false, &dirty)
		if err != nil {
			return nil, err
		}
		raw, err := f.disk.ReadFragments(context.Background(), int(addr), FragmentsPerBlock)
		if err != nil {
			return nil, err
		}
		covered += copy(out[covered:], raw[within:])
	}
	return out, nil
}

// WriteAt writes data at off, extending the file as needed.
func (f *FS) WriteAt(ino Ino, off int64, data []byte) (int, error) {
	if off < 0 {
		return 0, ErrBadOffset
	}
	if len(data) == 0 {
		return 0, nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.used[ino] {
		return 0, fmt.Errorf("%w: %d", ErrNotFound, ino)
	}
	in, err := f.readInode(ino)
	if err != nil {
		return 0, err
	}
	dirty := false
	written := 0
	for written < len(data) {
		pos := off + int64(written)
		blk := int(pos / BlockSize)
		within := int(pos % BlockSize)
		chunk := BlockSize - within
		if chunk > len(data)-written {
			chunk = len(data) - written
		}
		addr, err := f.blockAddr(in, blk, true, &dirty)
		if err != nil {
			return written, err
		}
		var buf []byte
		if within == 0 && chunk == BlockSize {
			buf = data[written : written+BlockSize]
		} else {
			raw, err := f.disk.ReadFragments(context.Background(), int(addr), FragmentsPerBlock)
			if err != nil {
				return written, err
			}
			buf = raw
			copy(buf[within:], data[written:written+chunk])
		}
		if err := f.disk.WriteFragments(context.Background(), int(addr), buf); err != nil {
			return written, err
		}
		written += chunk
	}
	if end := uint64(off) + uint64(len(data)); end > in.size {
		in.size = end
		dirty = true
	}
	if dirty {
		if err := f.writeInode(ino, in); err != nil {
			return written, err
		}
	}
	return written, nil
}

// InodeArea returns the fixed inode area's position and extent in fragments
// (experiment E11's placement contrast).
func (f *FS) InodeArea() (start, frags int) {
	return f.inodeBase, f.inodeBlks * FragmentsPerBlock
}
