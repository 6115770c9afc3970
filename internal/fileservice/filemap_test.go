package fileservice

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"testing"

	"repro/internal/device"
	"repro/internal/diskservice"
	"repro/internal/fault"
	"repro/internal/fit"
	"repro/internal/parity"
	"repro/internal/stable"
)

// diskChain walks the persisted file-map chain from the superfragment.
func diskChain(t *testing.T, s *Service) []fitLocation {
	t.Helper()
	var chain []fitLocation
	frag, err := s.readVital(0, s.superAddr())
	if err != nil {
		t.Fatal(err)
	}
	for off := superLink; frag[off+6] == 1; off = chainLink {
		loc := fitLocation{Disk: binary.BigEndian.Uint16(frag[off:]), Addr: binary.BigEndian.Uint32(frag[off+2:])}
		chain = append(chain, loc)
		if frag, err = s.readVital(int(loc.Disk), int(loc.Addr)); err != nil {
			t.Fatal(err)
		}
	}
	return chain
}

// liveChain is the chain the running service believes in.
func liveChain(s *Service) []fitLocation {
	var chain []fitLocation
	for _, f := range s.mapFrags[1:] {
		chain = append(chain, f.loc)
	}
	return chain
}

// TestCheckOnLiveChurnedService: Check on a running service must claim the
// chain fragments that are live now, not the ones the last mount found. (The
// chain used to be recorded only at mount, so after churn Check claimed freed
// fragments and reported more claimed than allocated.)
func TestCheckOnLiveChurnedService(t *testing.T) {
	r := newRig(t, 1)
	var ids []FileID
	create := func(svc *Service, n int) {
		for i := 0; i < n; i++ {
			id, err := svc.Create(fit.Attributes{})
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
	}
	create(r.svc, 400)
	if err := r.svc.Shutdown(); err != nil {
		t.Fatal(err)
	}
	svc, err := Mount(Config{Disks: Servers(r.disks...)})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids[:300] {
		if err := svc.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	ids = ids[300:]
	create(svc, 50)
	verify := func(when string, files int) {
		t.Helper()
		rep, err := svc.Check()
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Ok() || rep.Files != files {
			t.Fatalf("%s: Files = %d (want %d), problems: %v", when, rep.Files, files, rep.Problems)
		}
		onDisk := diskChain(t, svc)
		if !reflect.DeepEqual(liveChain(svc), onDisk) {
			t.Fatalf("%s: live chain %v, on disk %v", when, liveChain(svc), onDisk)
		}
		// Nothing has crashed, so nothing leaked: what is claimed, the chain
		// included, is exactly what is allocated.
		allocated := rep.TotalFragments - rep.FreeFragments
		if claimed := rep.UsedFragments + r.disks[0].MetadataFragments(); claimed != allocated {
			t.Fatalf("%s: %d fragments claimed, %d allocated", when, claimed, allocated)
		}
		for _, loc := range onDisk {
			if r.disks[loc.Disk].AllocateAt(int(loc.Addr), 1) == nil {
				t.Fatalf("%s: chain fragment %v was free", when, loc)
			}
		}
	}
	verify("after churn", 150)
	// The compacting rewrite switches chains; the live view must follow.
	if err := svc.Flush(); err != nil {
		t.Fatal(err)
	}
	verify("after flush", 150)
	create(svc, 200)
	verify("after growth", 350)
}

// TestMountsParentImage mounts a disk image written by the commit before
// incremental file-map persistence (340 creates, 49 deletes, clean shutdown:
// superfragment plus a two-fragment chain) and runs on it.
func TestMountsParentImage(t *testing.T) {
	f, err := os.Open("testdata/parent-c6a3ab1-image.gz")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	g := device.Geometry{FragmentsPerTrack: 32, Tracks: 64}
	var devs [3]*device.Disk // main, stable primary, stable mirror
	raw := make([]byte, g.Bytes())
	for i := range devs {
		if devs[i], err = device.New(g); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(zr, raw); err != nil {
			t.Fatal(err)
		}
		if err := devs[i].WriteFragments(context.Background(), 0, raw); err != nil {
			t.Fatal(err)
		}
	}
	st, err := stable.NewStore(devs[1], devs[2])
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv, err := diskservice.Mount(diskservice.Config{Disk: devs[0], Stable: st})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := Mount(Config{Disks: Servers(srv)})
	if err != nil {
		t.Fatal(err)
	}
	ids, err := svc.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 340-49 || len(svc.mapFrags) != 3 {
		t.Fatalf("mounted %d files in %d map fragments, want 291 in 3", len(ids), len(svc.mapFrags))
	}
	for _, id := range ids {
		if (id-1)%3 != 0 {
			continue // the image's writer gave data to every third file
		}
		got, err := svc.ReadAt(id, 0, 3)
		if want := []byte{byte(id), byte(id >> 8), 0xA5}; err != nil || !bytes.Equal(got, want) {
			t.Fatalf("file %d = %x, %v; want %x", id, got, err, want)
		}
	}
	// Run on it: the IDs continue where the image left off.
	if err := svc.Delete(ids[0]); err != nil {
		t.Fatal(err)
	}
	id, err := svc.Create(fit.Attributes{})
	if err != nil || id != 341 {
		t.Fatalf("Create on the parent image = %d, %v; want 341", id, err)
	}
	rep, err := svc.Check()
	if err != nil || !rep.Ok() || rep.Files != 291 {
		t.Fatalf("Check: %+v, %v", rep, err)
	}
}

// crashRig is a file service whose synchronous stable writes — the vital
// writes of create, delete and the compacting rewrite — pass an injector. It
// runs on one disk server or, with parity set, on a parity array of three.
// Every run starts from the same image of every drive (each member's main,
// stable primary and stable mirror): a cleanly shut down service whose file
// map fills the superfragment and most of one chain fragment. The churn that
// follows therefore begins by reserving FileIDs (nothing beyond the persisted
// next ID is reserved after a clean shutdown) with its first entry bound for
// a chain fragment, and soon appends a second chain fragment behind the
// first.
type crashRig struct {
	parity bool
	devs   [][3]*device.Disk // per member: main, stable primary, stable mirror
	image  [][3][]byte
	files  map[FileID][]byte // what the image holds
	st     []*stable.Store
	svc    *Service
}

func newCrashRig(t *testing.T, parity bool) *crashRig {
	t.Helper()
	g := device.Geometry{FragmentsPerTrack: 32, Tracks: 80} // room for ~500 small files
	r := &crashRig{parity: parity}
	members := 1
	if parity {
		members = 3
	}
	r.devs = make([][3]*device.Disk, members)
	r.image = make([][3][]byte, members)
	for m := range r.devs {
		for i := range r.devs[m] {
			d, err := device.New(g)
			if err != nil {
				t.Fatal(err)
			}
			r.devs[m][i] = d
		}
	}
	t.Cleanup(func() { r.closeStores() })
	r.stores(t, nil)
	r.open(t, true)
	j := &churnJournal{live: map[FileID][]byte{}, deleted: map[FileID]bool{}}
	if err := metadataChurn(r.svc, j, 1, entriesPerSuper+entriesPerChain-30, false); err != nil {
		t.Fatal(err)
	}
	if err := r.svc.Shutdown(); err != nil {
		t.Fatal(err)
	}
	r.closeStores() // drains the deferred stable writes
	r.files = j.live
	for m := range r.devs {
		for i, d := range r.devs[m] {
			var err error
			if r.image[m][i], err = d.ReadFragments(context.Background(), 0, g.Capacity()); err != nil {
				t.Fatal(err)
			}
		}
	}
	return r
}

func (r *crashRig) closeStores() {
	for _, st := range r.st {
		_ = st.Close()
	}
	r.st = nil
}

// stores replaces every member's stable store with one whose writes pass
// inj.
func (r *crashRig) stores(t *testing.T, inj *fault.Injector) {
	t.Helper()
	r.closeStores()
	for _, devs := range r.devs {
		st, err := stable.NewStore(devs[1], devs[2], stable.WithFault(inj))
		if err != nil {
			t.Fatal(err)
		}
		r.st = append(r.st, st)
	}
}

// open builds the disk servers over the drives and stable stores — formatting
// them, or mounting them from media as after a machine crash — and the file
// service over them, on the parity array of them with parity set.
func (r *crashRig) open(t *testing.T, format bool) {
	t.Helper()
	var srvs []*diskservice.Server
	for m, devs := range r.devs {
		cfg := diskservice.Config{DiskID: m, Disk: devs[0], Stable: r.st[m]}
		srv, err := diskservice.Mount(cfg)
		if format {
			srv, err = diskservice.Format(cfg)
		}
		if err != nil {
			t.Fatal(err)
		}
		srvs = append(srvs, srv)
	}
	backends := Servers(srvs...)
	if r.parity {
		arr, err := parity.New(parity.Config{Disks: srvs})
		if err != nil {
			t.Fatal(err)
		}
		backends = []Backend{arr}
	}
	var err error
	if format {
		r.svc, err = New(Config{Disks: backends})
	} else {
		r.svc, err = Mount(Config{Disks: backends})
	}
	if err != nil {
		t.Fatal(err)
	}
}

// boot puts the image back on the drives and mounts it with inj on the
// stable stores, returning the journal of what the image holds.
func (r *crashRig) boot(t *testing.T, inj *fault.Injector) *churnJournal {
	t.Helper()
	r.closeStores()
	for m := range r.devs {
		for i, d := range r.devs[m] {
			if err := d.WriteFragments(context.Background(), 0, r.image[m][i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	r.stores(t, inj)
	r.open(t, false)
	j := &churnJournal{live: map[FileID][]byte{}, deleted: map[FileID]bool{}}
	for id, data := range r.files {
		j.live[id] = data
	}
	return j
}

// reboot remounts the disk servers and the file service from media, as after
// a machine crash, keeping the stable stores and their injector.
func (r *crashRig) reboot(t *testing.T) {
	t.Helper()
	r.open(t, false)
}

// churnJournal is what the churn's caller was told: which files exist with
// which contents, which are gone, and what was in flight at the crash.
type churnJournal struct {
	live     map[FileID][]byte
	deleted  map[FileID]bool
	deleting FileID // a Delete that had not returned (0: none)
	creating bool   // a Create that had not returned
}

// metadataChurn creates n files, each written and closed; with deletes set it
// also deletes about one file per six creates and runs one compacting Flush
// half way.
func metadataChurn(svc *Service, j *churnJournal, seed int64, n int, deletes bool) error {
	rng := rand.New(rand.NewSource(seed))
	var order []FileID
	for id := range j.live {
		order = append(order, id)
	}
	sort.Slice(order, func(a, b int) bool { return order[a] < order[b] })
	for i := 0; i < n; i++ {
		j.creating = true
		id, err := svc.Create(fit.Attributes{})
		if err != nil {
			return err
		}
		j.creating = false
		if _, dup := j.live[id]; dup || j.deleted[id] {
			return fmt.Errorf("FileID %d handed out twice", id)
		}
		data := payload(1+rng.Intn(3000), int64(id))
		if err := svc.Open(id); err != nil {
			return err
		}
		if _, err := svc.WriteAt(id, 0, data); err != nil {
			return err
		}
		if err := svc.Close(id); err != nil { // delayed-write: Close makes it durable
			return err
		}
		j.live[id] = data
		order = append(order, id)
		if !deletes {
			continue
		}
		if rng.Intn(6) == 0 {
			k := rng.Intn(len(order))
			victim := order[k]
			order = append(order[:k], order[k+1:]...)
			j.deleting = victim
			if err := svc.Delete(victim); err != nil {
				return err
			}
			j.deleting = 0
			delete(j.live, victim)
			j.deleted[victim] = true
		}
		if i == n/2 {
			if err := svc.Flush(); err != nil {
				return err
			}
		}
	}
	return nil
}

// TestCrashSweepFileMap crashes the churn at its k-th vital write, for every
// k and on either side of the stable primary write, reboots, and requires:
// a clean Check; every acknowledged create present with its data; every
// acknowledged delete absent; nothing else present but what was in flight;
// and no FileID handed out before the crash handed out again after it. It
// runs on one disk server and on a parity array of three.
func TestCrashSweepFileMap(t *testing.T) {
	for _, layout := range layouts {
		t.Run(layout.name, func(t *testing.T) { crashSweepFileMap(t, layout.parity) })
	}
}

func crashSweepFileMap(t *testing.T, parityLayout bool) {
	// A dry run counts the vital writes.
	const creates = 110
	probe := fault.NewInjector(0)
	r := newCrashRig(t, parityLayout)
	j := r.boot(t, probe)
	probe.Arm(stable.PtWriteBeforePrimary, fault.Action{Kind: fault.KindDelay, Times: -1})
	if err := metadataChurn(r.svc, j, 2, creates, true); err != nil {
		t.Fatal(err)
	}
	writes := probe.Fired(stable.PtWriteBeforePrimary)
	if chain := len(r.svc.mapFrags) - 1; chain != 2 || len(j.deleted) < 10 {
		t.Fatalf("churn left a %d-fragment chain after %d deletes; it must grow a second chain fragment", chain, len(j.deleted))
	}
	stride := 1
	if parityLayout {
		stride = 3 // each point costs more on the array; the single disk sweeps them all
	}
	if testing.Short() {
		stride *= 7
	}
	for _, pt := range []fault.Point{stable.PtWriteBeforePrimary, stable.PtWriteAfterPrimary} {
		for k := 0; k < writes; k += stride {
			inj := fault.NewInjector(int64(k))
			j := r.boot(t, inj)
			inj.Arm(pt, fault.Action{Kind: fault.KindCrash, After: k})
			crashed, err := fault.Run(func() error { return metadataChurn(r.svc, j, 2, creates, true) })
			if err != nil {
				t.Fatalf("%s k=%d: churn: %v", pt, k, err)
			}
			if crashed == nil {
				t.Fatalf("%s k=%d: no crash in %d vital writes", pt, k, writes)
			}
			inj.DisarmAll()
			r.reboot(t)
			ctx := fmt.Sprintf("%s k=%d (creating=%v deleting=%d)", pt, k, j.creating, j.deleting)

			rep, err := r.svc.Check()
			if err != nil || !rep.Ok() {
				t.Fatalf("%s: Check: %v %v", ctx, err, rep.Problems)
			}
			present, err := r.svc.List()
			if err != nil {
				t.Fatal(err)
			}
			extra := 0
			for _, id := range present {
				if _, ok := j.live[id]; ok {
					continue
				}
				if j.deleted[id] {
					t.Fatalf("%s: file %d is back after its delete was acknowledged", ctx, id)
				}
				// Not acknowledged either way: the create in flight (at most
				// one, still empty).
				size, err := r.svc.Size(id)
				if extra++; !j.creating || extra > 1 || err != nil || size != 0 {
					t.Fatalf("%s: unexplained file %d (size %d, %v)", ctx, id, size, err)
				}
			}
			for id, want := range j.live {
				got, err := r.svc.ReadAt(id, 0, len(want))
				if id == j.deleting && errors.Is(err, ErrNotFound) {
					continue // the delete in flight took effect
				}
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("%s: file %d lost or damaged after its create was acknowledged: %v", ctx, id, err)
				}
			}
			// IDs handed out after the crash are new.
			for i := 0; i < 3; i++ {
				id, err := r.svc.Create(fit.Attributes{})
				if err != nil {
					t.Fatalf("%s: Create after reboot: %v", ctx, err)
				}
				_, wasLive := j.live[id]
				if n := sort.Search(len(present), func(i int) bool { return present[i] >= id }); wasLive || j.deleted[id] || (n < len(present) && present[n] == id) {
					t.Fatalf("%s: FileID %d handed out again after the crash", ctx, id)
				}
			}
			if rep, err := r.svc.Check(); err != nil || !rep.Ok() {
				t.Fatalf("%s: Check after post-crash creates: %v %v", ctx, err, rep.Problems)
			}
		}
	}
}

// TestFileIDsSurviveCleanRemount: a clean Shutdown persists the exact next
// ID, so a remount neither reuses nor skips one.
func TestFileIDsSurviveCleanRemount(t *testing.T) {
	r := newRig(t, 1)
	var last FileID
	for i := 0; i < 5; i++ {
		id, err := r.svc.Create(fit.Attributes{})
		if err != nil {
			t.Fatal(err)
		}
		last = id
	}
	if err := r.svc.Delete(last); err != nil {
		t.Fatal(err)
	}
	if err := r.svc.Shutdown(); err != nil {
		t.Fatal(err)
	}
	svc, err := Mount(Config{Disks: Servers(r.disks...)})
	if err != nil {
		t.Fatal(err)
	}
	if id, err := svc.Create(fit.Attributes{}); err != nil || id != last+1 {
		t.Fatalf("Create after clean remount = %d, %v; want %d", id, err, last+1)
	}
}
