package fileservice

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/diskservice"
)

// The file map — system name → FIT location — is vital structural
// information. It is persisted as a chain of fragments starting from the
// service superfragment (a fixed address on disk 0), each written to its
// original location and to stable storage.
//
// The service keeps the slot layout in memory (which fragment holds which
// IDs, and where each fragment lives), so a create or delete rewrites the one
// fragment whose entries changed instead of the whole map. Fragments are
// never reordered or emptied out of the chain while the service runs; the
// compacting rewrite (persistMapLocked) runs only at New, Flush and
// Shutdown.

// fitLocation is where a file's index table lives.
type fitLocation struct {
	Disk uint16
	Addr uint32
}

// mapEntry is one file-map entry: the FIT location plus the index (into
// Service.mapFrags) of the persisted fragment holding the entry.
type mapEntry struct {
	fitLocation
	frag int
}

// mapFragment is the in-memory image of one persisted file-map fragment.
type mapFragment struct {
	loc fitLocation
	ids []FileID // in slot order
}

const (
	superMagic = 0x52464D31 // "RFM1"
	chainMagic = 0x52464D32

	// superfragment layout: magic(4) crc(4) nextID(8) link(7) count(2)
	// entries...; chain fragment layout: magic(4) crc(4) link(7) count(2)
	// entries.... link is nextDisk(2) nextAddr(4) nextValid(1).
	superLink   = 4 + 4 + 8
	chainLink   = 4 + 4
	linkSize    = 2 + 4 + 1
	superHeader = superLink + linkSize + 2
	chainHeader = chainLink + linkSize + 2
	entrySize   = 8 + 2 + 4 // id, disk, addr

	// idReserve is how many FileIDs one superfragment write reserves. The
	// persisted nextID is a high-water mark above every ID handed out, so the
	// superfragment is rewritten once per idReserve creates and an ID is
	// never reused across a crash (a crash skips at most idReserve IDs; a
	// clean Shutdown persists the exact value).
	idReserve = 1024
)

var errMapCorrupt = errors.New("fileservice: corrupt file map")

// entriesPerSuper and entriesPerChain are how many map entries fit in each
// fragment kind.
var (
	entriesPerSuper = (FragmentSize - superHeader) / entrySize
	entriesPerChain = (FragmentSize - chainHeader) / entrySize
)

// mapFragShape returns the magic and link offset of the fragment at chain
// index idx (0 is the superfragment); mapFragCap its entry capacity.
func mapFragShape(idx int) (magic uint32, link int) {
	if idx == 0 {
		return superMagic, superLink
	}
	return chainMagic, chainLink
}

func mapFragCap(idx int) int {
	if idx == 0 {
		return entriesPerSuper
	}
	return entriesPerChain
}

// putMapFragLocked encodes frags[idx] — its entries, the link to frags[idx+1]
// and, in the superfragment, the reserved nextID — and writes it to its
// location and to stable storage. Callers must hold s.mu.
func (s *Service) putMapFragLocked(frags []mapFragment, idx int) error {
	f := &frags[idx]
	magic, off := mapFragShape(idx)
	frag := make([]byte, FragmentSize)
	binary.BigEndian.PutUint32(frag[0:], magic)
	if idx == 0 {
		binary.BigEndian.PutUint64(frag[8:], uint64(s.reservedID))
	}
	if idx+1 < len(frags) {
		next := frags[idx+1].loc
		binary.BigEndian.PutUint16(frag[off:], next.Disk)
		binary.BigEndian.PutUint32(frag[off+2:], next.Addr)
		frag[off+6] = 1
	}
	binary.BigEndian.PutUint16(frag[off+linkSize:], uint16(len(f.ids)))
	off += linkSize + 2
	for _, id := range f.ids {
		loc := s.fileMap[id]
		binary.BigEndian.PutUint64(frag[off:], uint64(id))
		binary.BigEndian.PutUint16(frag[off+8:], loc.Disk)
		binary.BigEndian.PutUint32(frag[off+10:], loc.Addr)
		off += entrySize
	}
	binary.BigEndian.PutUint32(frag[4:], fragCRC(frag))
	return s.disks[f.loc.Disk].Put(context.Background(), int(f.loc.Addr), frag, diskservice.PutOptions{
		Stability: diskservice.MainAndStable, WaitStable: true,
	})

}

// allocMapFragLocked claims one fragment for the file-map chain.
func (s *Service) allocMapFragLocked() (fitLocation, error) {
	disk := s.pickDisk(1)
	if disk < 0 {
		return fitLocation{}, ErrNoSpace
	}
	addr, err := s.disks[disk].AllocateFragments(1)
	if err != nil {
		return fitLocation{}, fmt.Errorf("fileservice: allocating file-map fragment: %w", err)
	}
	return fitLocation{Disk: uint16(disk), Addr: uint32(addr)}, nil
}

// mapInsertLocked persists the entry of id, which must already be in
// s.fileMap: into a fragment with a free slot — one vital write — or, when
// every fragment is full, into a new tail fragment, written before its
// predecessor's link to it so a crash in between leaves only an unreferenced
// fragment.
func (s *Service) mapInsertLocked(id FileID) error {
	e := s.fileMap[id]
	if n := len(s.mapRoom); n > 0 {
		e.frag = s.mapRoom[n-1]
		f := &s.mapFrags[e.frag]
		f.ids = append(f.ids, id)
		if err := s.putMapFragLocked(s.mapFrags, e.frag); err != nil {
			f.ids = f.ids[:len(f.ids)-1]
			return err
		}
		if len(f.ids) == mapFragCap(e.frag) {
			s.mapRoom = s.mapRoom[:n-1]
		}
		s.fileMap[id] = e
		return nil
	}
	loc, err := s.allocMapFragLocked()
	if err != nil {
		return err
	}
	e.frag = len(s.mapFrags)
	s.mapFrags = append(s.mapFrags, mapFragment{loc: loc, ids: []FileID{id}})
	if err = s.putMapFragLocked(s.mapFrags, e.frag); err == nil {
		err = s.putMapFragLocked(s.mapFrags, e.frag-1)
	}
	if err != nil {
		s.mapFrags = s.mapFrags[:e.frag]
		_ = s.disks[loc.Disk].Free(int(loc.Addr), 1)
		return err
	}
	s.mapRoom = append(s.mapRoom, e.frag)
	s.fileMap[id] = e
	return nil
}

// mapRemoveLocked drops id from the file map and rewrites the one fragment
// that held its entry.
func (s *Service) mapRemoveLocked(id FileID) error {
	idx := s.fileMap[id].frag
	f := &s.mapFrags[idx]
	last := len(f.ids) - 1
	for i, cur := range f.ids {
		if cur == id {
			f.ids[i] = f.ids[last]
			break
		}
	}
	f.ids = f.ids[:last]
	if err := s.putMapFragLocked(s.mapFrags, idx); err != nil {
		f.ids = append(f.ids, id)
		return err
	}
	if last+1 == mapFragCap(idx) {
		s.mapRoom = append(s.mapRoom, idx)
	}
	delete(s.fileMap, id)
	return nil
}

// persistMapLocked is the compacting rewrite: it packs every entry into the
// superfragment plus a freshly allocated chain, switches to it with the
// superfragment write, then frees the previous chain. Callers must hold
// s.mu; it runs where the service is quiescent (New, Flush, Shutdown).
func (s *Service) persistMapLocked() error {
	ids := make([]FileID, 0, len(s.fileMap))
	for id := range s.fileMap {
		ids = append(ids, id)
	}
	frags := []mapFragment{{loc: fitLocation{Addr: uint32(s.superAddr())}}}
	for idx := 0; ; idx++ {
		capacity := mapFragCap(idx)
		if len(ids) <= capacity {
			frags[idx].ids = ids
			break
		}
		frags[idx].ids, ids = ids[:capacity:capacity], ids[capacity:]
		loc, err := s.allocMapFragLocked()
		if err != nil {
			return err
		}
		frags = append(frags, mapFragment{loc: loc})
	}
	// Back to front, so every link written points at a complete fragment and
	// the superfragment write is the switch.
	for idx := len(frags) - 1; idx >= 0; idx-- {
		if err := s.putMapFragLocked(frags, idx); err != nil {
			return err
		}
	}
	for i := 1; i < len(s.mapFrags); i++ { // none yet at New
		loc := s.mapFrags[i].loc
		if err := s.disks[loc.Disk].Free(int(loc.Addr), 1); err != nil {
			return err
		}
	}
	s.installMapLocked(frags)
	return nil
}

// installMapLocked makes frags the live layout: it records each entry's
// fragment and collects the fragments with a free slot.
func (s *Service) installMapLocked(frags []mapFragment) {
	s.mapFrags = frags
	s.mapRoom = s.mapRoom[:0]
	for idx, f := range frags {
		for _, id := range f.ids {
			e := s.fileMap[id]
			e.frag = idx
			s.fileMap[id] = e
		}
		if len(f.ids) < mapFragCap(idx) {
			s.mapRoom = append(s.mapRoom, idx)
		}
	}
}

// loadMapLocked reads the file map from the superfragment and chain.
func (s *Service) loadMapLocked() error {
	var frags []mapFragment
	loc, valid := fitLocation{Addr: uint32(s.superAddr())}, true
	for idx := 0; valid; idx++ {
		frag, err := s.readVital(int(loc.Disk), int(loc.Addr))
		if err != nil {
			return fmt.Errorf("fileservice: reading file-map fragment %d: %w", idx, err)
		}
		magic, off := mapFragShape(idx)
		if binary.BigEndian.Uint32(frag[0:]) != magic || binary.BigEndian.Uint32(frag[4:]) != fragCRC(frag) {
			return fmt.Errorf("%w: fragment %d at %d/%d", errMapCorrupt, idx, loc.Disk, loc.Addr)
		}
		if idx == 0 {
			s.nextID = FileID(binary.BigEndian.Uint64(frag[8:]))
			s.reservedID = s.nextID
		}
		f := mapFragment{loc: loc}
		loc = fitLocation{
			Disk: binary.BigEndian.Uint16(frag[off:]),
			Addr: binary.BigEndian.Uint32(frag[off+2:]),
		}
		valid = frag[off+6] == 1
		count := int(binary.BigEndian.Uint16(frag[off+linkSize:]))
		off += linkSize + 2
		for i := 0; i < count; i++ {
			id := FileID(binary.BigEndian.Uint64(frag[off:]))
			s.fileMap[id] = mapEntry{fitLocation: fitLocation{
				Disk: binary.BigEndian.Uint16(frag[off+8:]),
				Addr: binary.BigEndian.Uint32(frag[off+10:]),
			}}
			f.ids = append(f.ids, id)
			off += entrySize
		}
		frags = append(frags, f)
	}
	s.installMapLocked(frags)
	return nil
}

// readVital reads one fragment of vital structure, falling back to the
// stable copy when the main copy is unreadable.
func (s *Service) readVital(disk, addr int) ([]byte, error) {
	data, err := Get(context.Background(), s.disks[disk], addr, 1, diskservice.GetOptions{NoReadAhead: true})
	if err == nil {
		return data, nil
	}
	return Get(context.Background(), s.disks[disk], addr, 1, diskservice.GetOptions{FromStable: true})
}

// fragCRC computes the fragment checksum with the CRC field zeroed.
func fragCRC(frag []byte) uint32 {
	h := crc32.NewIEEE()
	h.Write(frag[:4])
	var zero [4]byte
	h.Write(zero[:])
	h.Write(frag[8:])
	return h.Sum32()
}
