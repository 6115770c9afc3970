package fileservice

import (
	"fmt"
)

// CheckReport is the result of a consistency check.
type CheckReport struct {
	Files          int
	Blocks         int
	Problems       []string
	FreeFragments  int
	UsedFragments  int
	TotalFragments int
}

// Ok reports whether the check found no problems.
func (r *CheckReport) Ok() bool { return len(r.Problems) == 0 }

// Check verifies the on-disk structural invariants (the fsck pass):
//
//   - every file-map entry resolves to a decodable FIT (or its stable copy);
//   - every extent and indirect block lies within its disk's bounds;
//   - no two files claim the same fragment;
//   - the free-space accounting matches the sum of claimed structures.
func (s *Service) Check() (*CheckReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rep := &CheckReport{}
	type span struct {
		owner FileID
		what  string
	}
	// claimed[disk][frag] tracks ownership for overlap detection.
	claimed := make([]map[int]span, len(s.disks))
	for i := range claimed {
		claimed[i] = make(map[int]span)
		rep.TotalFragments += s.disks[i].Capacity()
		rep.FreeFragments += s.disks[i].FreeFragments()
	}
	claim := func(owner FileID, what string, disk, addr, n int) {
		if disk < 0 || disk >= len(s.disks) {
			rep.Problems = append(rep.Problems,
				fmt.Sprintf("file %d: %s on nonexistent disk %d", owner, what, disk))
			return
		}
		if addr < 0 || addr+n > s.disks[disk].Capacity() {
			rep.Problems = append(rep.Problems,
				fmt.Sprintf("file %d: %s at [%d,%d) out of bounds", owner, what, addr, addr+n))
			return
		}
		for f := addr; f < addr+n; f++ {
			if prev, ok := claimed[disk][f]; ok {
				rep.Problems = append(rep.Problems,
					fmt.Sprintf("fragment %d/%d claimed by file %d (%s) and file %d (%s)",
						disk, f, prev.owner, prev.what, owner, what))
				return
			}
			claimed[disk][f] = span{owner, what}
			rep.UsedFragments++
		}
	}
	// Service structures.
	claim(0, "superfragment", 0, s.superAddr(), 1)
	for _, f := range s.mapFrags[1:] {
		claim(0, "file-map chain", int(f.loc.Disk), int(f.loc.Addr), 1)
	}
	// Every file. Use the live in-memory state when the file is cached (so
	// the check sees what the service would act on, and does not clobber
	// open-file state); load the FIT from disk otherwise.
	for id, loc := range s.fileMap {
		st, err := s.loadStateLocked(id, loc.fitLocation)
		if err != nil {
			rep.Problems = append(rep.Problems, fmt.Sprintf("file %d: FIT unreadable: %v", id, err))
			continue
		}
		rep.Files++
		claim(id, "FIT", int(loc.Disk), int(loc.Addr), 1)
		for _, e := range st.indirect {
			claim(id, "indirect block", int(e.Disk), int(e.Addr), FragmentsPerBlock)
		}
		for _, e := range st.extents.Extents() {
			claim(id, "data extent", int(e.Disk), int(e.Addr), int(e.Count)*FragmentsPerBlock)
			rep.Blocks += int(e.Count)
		}
		if st.reservedAddr >= 0 {
			claim(id, "reserved block", st.fitDisk, st.reservedAddr, FragmentsPerBlock)
		}
		// The size must fit the mapped blocks.
		if int64(st.attr.Size) > int64(st.extents.TotalBlocks())*BlockSize {
			rep.Problems = append(rep.Problems,
				fmt.Sprintf("file %d: size %d exceeds %d mapped blocks",
					id, st.attr.Size, st.extents.TotalBlocks()))
		}
	}
	// Accounting: claimed structures must not exceed allocated space. (The
	// disk metadata region is allocated but not claimed here; leaks after a
	// crash are legal until the next mount rebuilds the bitmap.)
	allocated := rep.TotalFragments - rep.FreeFragments
	meta := 0
	for _, d := range s.disks {
		meta += d.MetadataFragments()
	}
	if rep.UsedFragments+meta > allocated {
		rep.Problems = append(rep.Problems,
			fmt.Sprintf("claimed %d + metadata %d fragments exceed %d allocated",
				rep.UsedFragments, meta, allocated))
	}
	return rep, nil
}
