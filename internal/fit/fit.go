// Package fit implements the file index table (§5): the per-file structure
// holding the sequence of block descriptors a file is composed of, plus the
// file-specific attributes.
//
// Each block descriptor names a data block regardless of physical location —
// it carries the disk server ID and fragment address, so a block can live on
// any disk in the system (the basis of striping, §7). Alongside each
// descriptor the table stores the paper's two-byte count of contiguous
// successive disk blocks, which lets the file service fetch a whole
// contiguous run with one invocation of get-block instead of count
// invocations.
//
// A table encodes into a single 2 KB fragment — structural information is
// deliberately stored in fragments, not blocks (§4). The direct area holds
// 64 descriptors; since every descriptor covers at least one 8 KB block,
// at least half a megabyte of file data is directly accessible (§5, §7).
// Larger files chain through indirect blocks, each an 8 KB block packed
// with more descriptors.
package fit

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"time"
)

// Layout constants.
const (
	// DescriptorSize is the encoded size of one block descriptor: disk (2),
	// address (4), count (2).
	DescriptorSize = 8
	// MaxDirectExtents is the number of descriptors in the direct area.
	// 64 descriptors × ≥1 block × 8 KB ⇒ at least 512 KB directly accessible.
	MaxDirectExtents = 64
	// MaxIndirectPtrs is the number of indirect-block pointers in a table.
	MaxIndirectPtrs = 8
	// MaxCount is the largest contiguous run one descriptor can describe
	// (a two-byte count, §5).
	MaxCount = 1<<16 - 1

	// FragmentSize and BlockSize mirror the disk service units.
	FragmentSize = 2 * 1024
	BlockSize    = 8 * 1024

	// ExtentsPerIndirectBlock is the descriptor capacity of one indirect
	// block (8 KB minus a 8-byte header, 8 bytes per descriptor).
	ExtentsPerIndirectBlock = (BlockSize - 8) / DescriptorSize

	fitMagic      = 0x46495431 // "FIT1"
	indirectMagic = 0x494E4431 // "IND1"
)

// ServiceType records which service's semantics currently govern the file
// (§2.2): a file is a basic file or a transaction file by use.
type ServiceType uint8

// Service types.
const (
	ServiceBasic ServiceType = iota + 1
	ServiceTransaction
)

// String implements fmt.Stringer.
func (s ServiceType) String() string {
	switch s {
	case ServiceBasic:
		return "basic"
	case ServiceTransaction:
		return "transaction"
	default:
		return fmt.Sprintf("ServiceType(%d)", uint8(s))
	}
}

// LockLevel records the granularity of locking applied to a transaction
// file (§6.1).
type LockLevel uint8

// Lock levels.
const (
	LockNone LockLevel = iota
	LockRecord
	LockPage
	LockFile
)

// String implements fmt.Stringer.
func (l LockLevel) String() string {
	switch l {
	case LockNone:
		return "none"
	case LockRecord:
		return "record"
	case LockPage:
		return "page"
	case LockFile:
		return "file"
	default:
		return fmt.Sprintf("LockLevel(%d)", uint8(l))
	}
}

// Extent is a block descriptor plus its contiguity count: Count consecutive
// 8 KB blocks starting at fragment address Addr on disk Disk.
type Extent struct {
	Disk  uint16
	Addr  uint32
	Count uint16
}

// Attributes are the file-specific attributes stored in the table (§5).
type Attributes struct {
	// Size is the file size in bytes.
	Size uint64
	// Created is the date and time of file creation.
	Created time.Time
	// LastRead is the time of the last read access.
	LastRead time.Time
	// RefCount is the number of instances the file is opened simultaneously.
	RefCount uint32
	// Service indicates whether operations on the file follow the semantics
	// of the basic file service or the transaction service.
	Service ServiceType
	// Locking indicates the level of locking.
	Locking LockLevel
	// ExtraSpace is the amount of extra space needed for storing
	// file-specific attributes.
	ExtraSpace uint32
}

// Table is a decoded file index table.
type Table struct {
	Attr     Attributes
	Direct   []Extent
	Indirect []Extent // pointers to indirect blocks, each Count==1
}

// Errors.
var (
	ErrCorrupt  = errors.New("fit: corrupt table")
	ErrTooLarge = errors.New("fit: too many extents")
)

// EncodeInto serializes the table into buf, which must be exactly one
// fragment long. The layout is: magic, CRC, attribute block, direct count,
// indirect count, descriptors. Every byte of buf is overwritten, so a caller
// may reuse one buffer across tables.
func (t *Table) EncodeInto(buf []byte) error {
	if len(buf) != FragmentSize {
		return fmt.Errorf("fit: encode buffer is %d bytes, want %d", len(buf), FragmentSize)
	}
	if len(t.Direct) > MaxDirectExtents {
		return fmt.Errorf("%w: %d direct extents (max %d)", ErrTooLarge, len(t.Direct), MaxDirectExtents)
	}
	if len(t.Indirect) > MaxIndirectPtrs {
		return fmt.Errorf("%w: %d indirect pointers (max %d)", ErrTooLarge, len(t.Indirect), MaxIndirectPtrs)
	}
	clear(buf)
	binary.BigEndian.PutUint32(buf[0:], fitMagic)
	// buf[4:8] is the CRC, filled last.
	a := &t.Attr
	binary.BigEndian.PutUint64(buf[8:], a.Size)
	binary.BigEndian.PutUint64(buf[16:], uint64(a.Created.UnixNano()))
	binary.BigEndian.PutUint64(buf[24:], uint64(a.LastRead.UnixNano()))
	binary.BigEndian.PutUint32(buf[32:], a.RefCount)
	buf[36] = byte(a.Service)
	buf[37] = byte(a.Locking)
	binary.BigEndian.PutUint32(buf[38:], a.ExtraSpace)
	binary.BigEndian.PutUint16(buf[42:], uint16(len(t.Direct)))
	binary.BigEndian.PutUint16(buf[44:], uint16(len(t.Indirect)))
	off := 46
	for _, list := range [2][]Extent{t.Direct, t.Indirect} {
		for _, e := range list {
			binary.BigEndian.PutUint16(buf[off:], e.Disk)
			binary.BigEndian.PutUint32(buf[off+2:], e.Addr)
			binary.BigEndian.PutUint16(buf[off+6:], e.Count)
			off += DescriptorSize
		}
	}
	binary.BigEndian.PutUint32(buf[4:], crcOf(buf))
	return nil
}

// crcOf computes the table checksum with the CRC field zeroed.
func crcOf(buf []byte) uint32 {
	h := crc32.NewIEEE()
	h.Write(buf[:4])
	var zero [4]byte
	h.Write(zero[:])
	h.Write(buf[8:])
	return h.Sum32()
}

// Decode parses a fragment produced by Encode, verifying magic and CRC.
func Decode(buf []byte) (*Table, error) {
	if len(buf) != FragmentSize {
		return nil, fmt.Errorf("%w: %d bytes, want %d", ErrCorrupt, len(buf), FragmentSize)
	}
	if binary.BigEndian.Uint32(buf[0:]) != fitMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if binary.BigEndian.Uint32(buf[4:]) != crcOf(buf) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	var t Table
	a := &t.Attr
	a.Size = binary.BigEndian.Uint64(buf[8:])
	a.Created = time.Unix(0, int64(binary.BigEndian.Uint64(buf[16:])))
	a.LastRead = time.Unix(0, int64(binary.BigEndian.Uint64(buf[24:])))
	a.RefCount = binary.BigEndian.Uint32(buf[32:])
	a.Service = ServiceType(buf[36])
	a.Locking = LockLevel(buf[37])
	a.ExtraSpace = binary.BigEndian.Uint32(buf[38:])
	nd := int(binary.BigEndian.Uint16(buf[42:]))
	ni := int(binary.BigEndian.Uint16(buf[44:]))
	if nd > MaxDirectExtents || ni > MaxIndirectPtrs {
		return nil, fmt.Errorf("%w: counts %d/%d exceed limits", ErrCorrupt, nd, ni)
	}
	off := 46
	read := func() Extent {
		e := Extent{
			Disk:  binary.BigEndian.Uint16(buf[off:]),
			Addr:  binary.BigEndian.Uint32(buf[off+2:]),
			Count: binary.BigEndian.Uint16(buf[off+6:]),
		}
		off += DescriptorSize
		return e
	}
	for i := 0; i < nd; i++ {
		t.Direct = append(t.Direct, read())
	}
	for i := 0; i < ni; i++ {
		t.Indirect = append(t.Indirect, read())
	}
	return &t, nil
}

// EncodeIndirect serializes extents into one 8 KB indirect block.
func EncodeIndirect(extents []Extent) ([]byte, error) {
	if len(extents) > ExtentsPerIndirectBlock {
		return nil, fmt.Errorf("%w: %d extents per indirect block (max %d)",
			ErrTooLarge, len(extents), ExtentsPerIndirectBlock)
	}
	buf := make([]byte, BlockSize)
	binary.BigEndian.PutUint32(buf[0:], indirectMagic)
	binary.BigEndian.PutUint32(buf[4:], uint32(len(extents)))
	off := 8
	for _, e := range extents {
		binary.BigEndian.PutUint16(buf[off:], e.Disk)
		binary.BigEndian.PutUint32(buf[off+2:], e.Addr)
		binary.BigEndian.PutUint16(buf[off+6:], e.Count)
		off += DescriptorSize
	}
	return buf, nil
}

// DecodeIndirect parses an indirect block.
func DecodeIndirect(buf []byte) ([]Extent, error) {
	if len(buf) != BlockSize {
		return nil, fmt.Errorf("%w: indirect block is %d bytes, want %d", ErrCorrupt, len(buf), BlockSize)
	}
	if binary.BigEndian.Uint32(buf[0:]) != indirectMagic {
		return nil, fmt.Errorf("%w: bad indirect magic", ErrCorrupt)
	}
	n := int(binary.BigEndian.Uint32(buf[4:]))
	if n > ExtentsPerIndirectBlock {
		return nil, fmt.Errorf("%w: indirect count %d exceeds capacity", ErrCorrupt, n)
	}
	extents := make([]Extent, 0, n)
	off := 8
	for i := 0; i < n; i++ {
		extents = append(extents, Extent{
			Disk:  binary.BigEndian.Uint16(buf[off:]),
			Addr:  binary.BigEndian.Uint32(buf[off+2:]),
			Count: binary.BigEndian.Uint16(buf[off+6:]),
		})
		off += DescriptorSize
	}
	return extents, nil
}

// ExtentMap is the in-memory view of a file's full extent list (direct plus
// all indirect), supporting logical-block lookup and contiguity-aware
// appends. It is not safe for concurrent use; the file service guards it.
type ExtentMap struct {
	extents []Extent
	// starts[i] is the logical block index of extents[i]'s first block.
	starts []int
	total  int
}

// NewExtentMap builds a map from an extent list in logical order.
func NewExtentMap(extents []Extent) *ExtentMap {
	m := &ExtentMap{}
	for _, e := range extents {
		m.Append(e)
	}
	return m
}

// TotalBlocks returns the number of logical blocks mapped.
func (m *ExtentMap) TotalBlocks() int { return m.total }

// Extents returns the extent list in logical order. The caller must not
// mutate it.
func (m *ExtentMap) Extents() []Extent { return m.extents }

// Append adds an extent covering the next Count logical blocks. When the new
// extent physically continues the last one (same disk, adjacent address) the
// two merge, keeping the descriptor count low — the on-disk benefit of
// contiguous allocation.
func (m *ExtentMap) Append(e Extent) {
	if e.Count == 0 {
		return
	}
	if n := len(m.extents); n > 0 {
		last := &m.extents[n-1]
		endAddr := last.Addr + uint32(last.Count)*uint32(BlockSize/FragmentSize)
		if last.Disk == e.Disk && endAddr == e.Addr && int(last.Count)+int(e.Count) <= MaxCount {
			last.Count += e.Count
			m.total += int(e.Count)
			return
		}
	}
	m.starts = append(m.starts, m.total)
	m.extents = append(m.extents, e)
	m.total += int(e.Count)
}

// Lookup resolves logical block index blk to its physical location. It
// returns the extent's disk, the fragment address of block blk, and the
// number of blocks (including blk) that remain physically contiguous from
// blk — the run the file service can fetch with one get-block.
func (m *ExtentMap) Lookup(blk int) (disk uint16, fragAddr uint32, contiguous int, ok bool) {
	if blk < 0 || blk >= m.total {
		return 0, 0, 0, false
	}
	// Binary search for the extent containing blk.
	lo, hi := 0, len(m.extents)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if m.starts[mid] <= blk {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	e := m.extents[lo]
	within := blk - m.starts[lo]
	addr := e.Addr + uint32(within)*uint32(BlockSize/FragmentSize)
	return e.Disk, addr, int(e.Count) - within, true
}

// TruncateBlocks drops all logical blocks at index ≥ n, returning the
// extents (or partial extents) that were removed so the caller can free
// them.
func (m *ExtentMap) TruncateBlocks(n int) []Extent {
	if n >= m.total {
		return nil
	}
	if n < 0 {
		n = 0
	}
	var freed []Extent
	for i := len(m.extents) - 1; i >= 0; i-- {
		start := m.starts[i]
		e := m.extents[i]
		if start >= n {
			freed = append(freed, e)
			m.extents = m.extents[:i]
			m.starts = m.starts[:i]
			continue
		}
		keep := n - start
		if keep < int(e.Count) {
			freed = append(freed, Extent{
				Disk:  e.Disk,
				Addr:  e.Addr + uint32(keep)*uint32(BlockSize/FragmentSize),
				Count: e.Count - uint16(keep),
			})
			m.extents[i].Count = uint16(keep)
		}
		break
	}
	m.total = n
	return freed
}

// Split divides the extent list into the direct area (first
// MaxDirectExtents extents) and the overflow that must go to indirect
// blocks.
func (m *ExtentMap) Split() (direct, overflow []Extent) {
	if len(m.extents) <= MaxDirectExtents {
		return m.extents, nil
	}
	return m.extents[:MaxDirectExtents], m.extents[MaxDirectExtents:]
}
