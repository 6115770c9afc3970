package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"

	"repro/internal/agent"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fileservice"
	"repro/internal/fit"
	"repro/internal/obs"
	"repro/internal/rpcfs"
	"repro/internal/txn"
)

// numClients is the closed loop's width: every caller of a file service
// waits for its reply, and the reference box has two CPUs.
const numClients = 2

// workloadSpec is one workload: why it exists, how its rig is built, and how
// many warm-up ops per client bring one set-up to a second or more.
type workloadSpec struct {
	name    string
	why     string
	warmOps int
	build   func(e *env) (*rig, error)
}

// env is what a rig is built from.
type env struct {
	tr      *tracer
	seed    int64
	kernels []*refKernel // one per client, kept across set-ups
}

// worker makes client i's worker; the caller gives it its step.
func (e *env) worker(i int) *worker {
	return &worker{tag: uint8(i + 1), rng: e.rng(i), tr: e.tr, ref: e.kernels[i]}
}

// rng derives worker i's op stream from the seed.
func (e *env) rng(i int) *rand.Rand { return rand.New(rand.NewSource(e.seed*1000003 + int64(i))) }

var workloads = []workloadSpec{
	{"hot_reread", "2 lease-holding cached clients re-read 16 shared 64 KiB files: all hits, agent + ccache.client only, server idle; bypass case for server and wire changes", 350_000, buildHotReread},
	{"wire_rw", "primary/backup pair, 4 KiB 70/30 random mix on files that fit the server cache: per-message cost of router, rpc, cluster, lease manager, rpcfs, plus the replication ship on writes", 8_000, buildWireRW},
	{"cold_rw", "solo node, same mix on 2 x 16 MiB files, far beyond the 2 MiB server block cache: time is below rpcfs in fileservice, cache, diskservice, device, stable", 1_500, buildColdRW},
	{"meta_churn", "solo node, small-file life cycle create/write/close/open/read/close/delete in a 2000-file namespace: naming, fit, freespace and many small round trips, negligible data", 100, buildMetaChurn},
	{"txn_commit", "in-process facility, 2 committers on record-locked files: txn, lock, wal, intentions, group commit and no rpc, cluster or ccache; bypass case for wire changes", 8_000, buildTxnCommit},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// Every block the benchmark writes validates itself: three header words
// (file tag, offset, generation) and a body derived from them. A read checks
// all of it against what the reader knows was last written there.
const golden = 0x9E3779B97F4A7C15

func bodySeed(tag, off, gen uint64) uint64 {
	x := tag*golden ^ off*0xBF58476D1CE4E5B9 ^ gen*0x94D049BB133111EB
	x ^= x >> 31
	return x * golden
}

func fill(buf []byte, tag, off, gen uint64) {
	binary.LittleEndian.PutUint64(buf[0:], tag)
	binary.LittleEndian.PutUint64(buf[8:], off)
	binary.LittleEndian.PutUint64(buf[16:], gen)
	x := bodySeed(tag, off, gen)
	for i := 24; i+8 <= len(buf); i += 8 {
		x += golden
		binary.LittleEndian.PutUint64(buf[i:], x)
	}
}

var errShort = errors.New("short read")

func check(buf []byte, n int, tag, off, gen uint64) error {
	if len(buf) != n {
		return fmt.Errorf("%w: %d of %d bytes at tag %#x off %d", errShort, len(buf), n, tag, off)
	}
	if t, o, g := binary.LittleEndian.Uint64(buf[0:]), binary.LittleEndian.Uint64(buf[8:]), binary.LittleEndian.Uint64(buf[16:]); t != tag || o != off || g != gen {
		return fmt.Errorf("block header (tag %#x off %d gen %d), want (tag %#x off %d gen %d)", t, o, g, tag, off, gen)
	}
	x := bodySeed(tag, off, gen)
	for i := 24; i+8 <= len(buf); i += 8 {
		x += golden
		if binary.LittleEndian.Uint64(buf[i:]) != x {
			return fmt.Errorf("block body differs at byte %d (tag %#x off %d gen %d)", i, tag, off, gen)
		}
	}
	return nil
}

// ioUnit is the size and alignment of every data op in the read/write
// workloads.
const ioUnit = 4096

// soloNode boots one default rhodosd on a loopback port.
func soloNode(tr *tracer) (*node, []string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	addrs := []string{ln.Addr().String()}
	n, err := startNode(tr, ln, cluster.RoleNone, cluster.Map{Version: 1, Endpoints: addrs})
	if err != nil {
		_ = ln.Close()
		return nil, nil, err
	}
	return n, addrs, nil
}

// writeFile creates path through the agent and fills it with generation-0
// blocks, chunk bytes per write. It returns the open descriptor.
func writeFile(c *client, path string, attr fit.Attributes, tag uint64, size, chunk int) (int, error) {
	fd, err := c.fa.Create(c.proc, path, attr)
	if err != nil {
		return 0, fmt.Errorf("create %s: %w", path, err)
	}
	buf := make([]byte, chunk)
	for off := 0; off < size; off += chunk {
		for u := 0; u < chunk; u += ioUnit {
			fill(buf[u:u+ioUnit], tag, uint64(off+u), 0)
		}
		if n, err := c.fa.PWrite(c.proc, fd, int64(off), buf); err != nil || n != chunk {
			return 0, fmt.Errorf("populate %s at %d: wrote %d: %v", path, off, n, err)
		}
	}
	return fd, nil
}

// hot_reread geometry: 16 files x 16 units = 1 MiB, far inside the client
// cache's default 1024 blocks of 8 KiB.
const (
	hotFiles    = 16
	hotFileSize = 64 << 10
)

func buildHotReread(e *env) (_ *rig, err error) {
	n, addrs, err := soloNode(e.tr)
	if err != nil {
		return nil, err
	}
	r := &rig{tr: e.tr, nodes: []*node{n}, fac: n.fac, classes: []string{"read"}}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	// The hot files are seeded through an uncached client that is gone before
	// the readers open them: a seeding client still holding write leases
	// makes the readers' first Open fail with "recall in progress".
	seeder, err := dialClient(e.tr, 100, addrs, nil, false)
	if err != nil {
		return nil, err
	}
	for f := 0; f < hotFiles; f++ {
		fd, err := writeFile(seeder, hotPath(f), fit.Attributes{}, hotTag(f), hotFileSize, hotFileSize)
		if err == nil {
			err = seeder.fa.Close(seeder.proc, fd)
		}
		if err != nil {
			_ = seeder.close()
			return nil, err
		}
	}
	if err := seeder.close(); err != nil {
		return nil, err
	}
	for i := 0; i < numClients; i++ {
		c, err := dialClient(e.tr, uint64(i+1), addrs, nil, true)
		if err != nil {
			return nil, err
		}
		r.clients = append(r.clients, c)
		fds := make([]int, hotFiles)
		for f := range fds {
			if fds[f], err = c.fa.Open(c.proc, hotPath(f)); err != nil {
				return nil, fmt.Errorf("open %s: %w", hotPath(f), err)
			}
		}
		w := e.worker(i)
		w.step = func() (int, int64, error) {
			f := w.rng.Intn(hotFiles)
			off := int64(w.rng.Intn(hotFileSize/ioUnit)) * ioUnit
			t0 := w.tr.now()
			data, err := c.fa.PRead(c.proc, fds[f], off, ioUnit)
			t1 := w.tr.now()
			w.span(kindRead, t0, t1)
			if err != nil {
				return 0, 0, err
			}
			return 0, t1 - t0, check(data, ioUnit, hotTag(f), uint64(off), 0)
		}
		r.workers = append(r.workers, w)
	}
	return r, nil
}

func hotPath(f int) string { return fmt.Sprintf("/hot/f%02d", f) }
func hotTag(f int) uint64  { return 0x4807<<32 | uint64(f+1) }

// ownerTag is the block tag of the private file of client i (0-based) in a
// workload whose tags start with base.
func ownerTag(base uint64, i int) uint64 { return base<<32 | uint64(i+1) }

func rwPath(i int) string  { return fmt.Sprintf("/rw/c%d", i+1) }
func txnPath(i int) string { return fmt.Sprintf("/txn/c%d", i+1) }

const txnTagBase = 0x7C17

// Read/write mix shared by wire_rw and cold_rw.
const (
	classRead  = 0
	classWrite = 1
	readShare  = 0.70
)

func buildWireRW(e *env) (*rig, error) {
	pl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	bl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = pl.Close()
		return nil, err
	}
	m := cluster.Map{Version: 1, Endpoints: []string{pl.Addr().String()}, Backups: []string{bl.Addr().String()}}
	// The backup first: it must be applying before the primary ships.
	backup, err := startNode(e.tr, bl, cluster.RoleBackup, m)
	if err != nil {
		_ = pl.Close()
		_ = bl.Close()
		return nil, err
	}
	primary, err := startNode(e.tr, pl, cluster.RolePrimary, m)
	if err != nil {
		_ = pl.Close()
		backup.close()
		return nil, err
	}
	r := &rig{tr: e.tr, nodes: []*node{primary, backup}, fac: primary.fac}
	return buildRW(e, r, m.Endpoints, m.Backups, fit.Attributes{}, 0x3173, 512<<10, 64<<10)
}

func buildColdRW(e *env) (*rig, error) {
	n, addrs, err := soloNode(e.tr)
	if err != nil {
		return nil, err
	}
	r := &rig{tr: e.tr, nodes: []*node{n}, fac: n.fac}
	// The files are write-through (the transaction service type of §5), not
	// the default delayed-write, because delayed write loses data here: a
	// read miss fetches a run of up to 64 contiguous blocks and
	// fileservice.fetch re-Puts each as clean, overwriting the data of any
	// block of the run that sits dirty in the block cache. One client and a
	// file larger than the cache are enough (see README.md, standing
	// anomalies); with write-through no block is dirty when a neighbour's
	// miss lands, and the device write moves from eviction to the write.
	return buildRW(e, r, addrs, nil, fit.Attributes{Service: fit.ServiceTransaction}, 0xC01D, 16<<20, 256<<10)
}

// buildRW gives each uncached client one private file of fileSize bytes and
// a 70/30 random 4 KiB read/write loop over it. The client remembers the
// generation it last wrote to every unit, so each read is checked exactly.
func buildRW(e *env, r *rig, addrs, backups []string, attr fit.Attributes, tagBase uint64, fileSize, popChunk int) (_ *rig, err error) {
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	r.classes = []string{"read", "write"}
	units := fileSize / ioUnit
	raw := make([]fileservice.FileID, numClients)
	gens := make([][]uint32, numClients)
	for i := 0; i < numClients; i++ {
		c, err := dialClient(e.tr, uint64(i+1), addrs, backups, false)
		if err != nil {
			return nil, err
		}
		r.clients = append(r.clients, c)
		tag, path := ownerTag(tagBase, i), rwPath(i)
		fd, err := writeFile(c, path, attr, tag, fileSize, popChunk)
		if err != nil {
			return nil, err
		}
		ent, err := r.fac.Naming.ResolvePath(path)
		if err != nil {
			return nil, err
		}
		raw[i] = fileservice.FileID(ent.SystemName)
		gen := make([]uint32, units)
		gens[i] = gen
		buf := make([]byte, ioUnit)
		w := e.worker(i)
		w.step = func() (int, int64, error) {
			u := w.rng.Intn(units)
			off := int64(u) * ioUnit
			if w.rng.Float64() < readShare {
				t0 := w.tr.now()
				data, err := c.fa.PRead(c.proc, fd, off, ioUnit)
				t1 := w.tr.now()
				w.span(kindRead, t0, t1)
				if err != nil {
					return classRead, 0, err
				}
				return classRead, t1 - t0, check(data, ioUnit, tag, uint64(off), uint64(gen[u]))
			}
			gen[u]++
			fill(buf, tag, uint64(off), uint64(gen[u]))
			t0 := w.tr.now()
			n, err := c.fa.PWrite(c.proc, fd, off, buf)
			t1 := w.tr.now()
			w.span(kindWrite, t0, t1)
			if err == nil && n != ioUnit {
				err = fmt.Errorf("short write: %d of %d bytes", n, ioUnit)
			}
			return classWrite, t1 - t0, err
		}
		r.workers = append(r.workers, w)
	}
	// Every unit is read back after the window, whatever the loop last did.
	r.verify = func() error {
		for i, c := range r.clients {
			fd, err := c.fa.Open(c.proc, rwPath(i))
			if err != nil {
				return err
			}
			tag := ownerTag(tagBase, i)
			for base := 0; base < units; base += 16 {
				data, err := c.fa.PRead(c.proc, fd, int64(base)*ioUnit, 16*ioUnit)
				if err != nil {
					return err
				}
				for u := base; u < base+16 && u < units; u++ {
					lo := (u - base) * ioUnit
					if lo+ioUnit > len(data) {
						return fmt.Errorf("%w at unit %d", errShort, u)
					}
					if err := check(data[lo:lo+ioUnit], ioUnit, tag, uint64(u)*ioUnit, uint64(gens[i][u])); err != nil {
						return err
					}
				}
			}
			if err := c.fa.Close(c.proc, fd); err != nil {
				return err
			}
		}
		return nil
	}
	r.probe = func(out map[string]float64) error { return probeRW(e, r, raw, gens, tagBase, out) }
	return r, nil
}

// meta_churn geometry.
const (
	metaDirs     = 8
	metaPrefill  = 2000
	metaFileSize = 1024
	// metaResolveEvery is how often a cycle also checks that the deleted
	// path no longer resolves; the check is a round trip of its own, so it
	// samples.
	metaResolveEvery = 16
)

const (
	classCycle = iota
	classCreate
	classOpen
	classDelete
)

func buildMetaChurn(e *env) (_ *rig, err error) {
	n, addrs, err := soloNode(e.tr)
	if err != nil {
		return nil, err
	}
	r := &rig{tr: e.tr, nodes: []*node{n}, fac: n.fac, classes: []string{"cycle", "create", "open", "delete"}}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	for i := 0; i < numClients; i++ {
		c, err := dialClient(e.tr, uint64(i+1), addrs, nil, false)
		if err != nil {
			return nil, err
		}
		r.clients = append(r.clients, c)
	}
	// The namespace the churn runs in: 2000 resident files, half from each
	// client.
	errs := make([]error, numClients)
	var wg sync.WaitGroup
	for i, c := range r.clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			for k := 0; k < metaPrefill/numClients; k++ {
				fd, err := c.fa.Create(c.proc, fmt.Sprintf("/meta/pre%d/d%d/p%04d", i+1, k%metaDirs, k), fit.Attributes{})
				if err == nil {
					err = c.fa.Close(c.proc, fd)
				}
				if err != nil {
					errs[i] = fmt.Errorf("prefill: %w", err)
					return
				}
			}
		}(i, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for i, c := range r.clients {
		c := c
		tag := ownerTag(0x3E7A, i)
		buf := make([]byte, metaFileSize)
		var seq uint64
		w := e.worker(i)
		w.step = func() (int, int64, error) {
			seq++
			path := fmt.Sprintf("/meta/c%d/d%d/f%d", w.tag, w.rng.Intn(metaDirs), seq)
			fill(buf, tag, 0, seq)
			var fd int
			var data []byte
			failed := func(what string, err error) (int, int64, error) {
				return classCycle, 0, fmt.Errorf("%s %s: %w", what, path, err)
			}
			dCreate, err := w.call(kindCreate, func() (err error) { fd, err = c.fa.Create(c.proc, path, fit.Attributes{}); return })
			if err != nil {
				return failed("create", err)
			}
			dWrite, err := w.call(kindWrite, func() error { _, err := c.fa.PWrite(c.proc, fd, 0, buf); return err })
			if err != nil {
				return failed("write", err)
			}
			dClose1, err := w.call(kindClose, func() error { return c.fa.Close(c.proc, fd) })
			if err != nil {
				return failed("close", err)
			}
			dOpen, err := w.call(kindOpen, func() (err error) { fd, err = c.fa.Open(c.proc, path); return })
			if err != nil {
				return failed("open", err)
			}
			dRead, err := w.call(kindRead, func() (err error) { data, err = c.fa.PRead(c.proc, fd, 0, metaFileSize); return })
			if err != nil {
				return failed("read", err)
			}
			dClose2, err := w.call(kindClose, func() error { return c.fa.Close(c.proc, fd) })
			if err != nil {
				return failed("close", err)
			}
			dDelete, err := w.call(kindDelete, func() error { return c.fa.Delete(path) })
			if err != nil {
				return failed("delete", err)
			}
			if err := check(data, metaFileSize, tag, 0, seq); err != nil {
				return classCycle, 0, err
			}
			if seq%metaResolveEvery == 0 {
				if _, err := c.tap.rt.ResolvePath(path); err == nil || !rpcfs.IsNotFound(err) {
					return classCycle, 0, fmt.Errorf("deleted path %s still resolves (err %v)", path, err)
				}
			}
			w.sub[classCreate], w.sub[classOpen], w.sub[classDelete] = dCreate, dOpen, dDelete
			return classCycle, dCreate + dWrite + dClose1 + dOpen + dRead + dClose2 + dDelete, nil
		}
		r.workers = append(r.workers, w)
	}
	r.probe = func(out map[string]float64) error { return probeMeta(r, out) }
	return r, nil
}

// txn_commit geometry: each committer owns one file of 64 records.
const (
	txnRecords = 64
	txnRecSize = 256
)

func buildTxnCommit(e *env) (_ *rig, err error) {
	fac, err := core.New(core.Config{Disks: 1, Geometry: rhodosdGeometry, Obs: obs.New()})
	if err != nil {
		return nil, err
	}
	r := &rig{tr: e.tr, fac: fac, classes: []string{"commit"}, closer: func() { _ = fac.Close() }}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	m, err := agent.NewMachine(agent.MachineConfig{Naming: fac.Naming, Files: fac.Files, Txns: fac.Txns, Metrics: fac.Metrics, Obs: fac.Obs()})
	if err != nil {
		return nil, err
	}
	fids := make([]txn.FileID, numClients)
	gens := make([][]uint64, numClients)
	procs := make([]*agent.Process, numClients)
	for i := 0; i < numClients; i++ {
		p := m.NewProcess()
		procs[i] = p
		path, tag := txnPath(i), ownerTag(txnTagBase, i)
		gen := make([]uint64, txnRecords)
		gens[i] = gen
		init := make([]byte, txnRecords*txnRecSize)
		for rec := 0; rec < txnRecords; rec++ {
			fill(init[rec*txnRecSize:(rec+1)*txnRecSize], tag, uint64(rec*txnRecSize), 0)
		}
		id, err := p.TBegin()
		if err != nil {
			return nil, err
		}
		fd, err := p.TCreate(id, path, fit.Attributes{Locking: fit.LockRecord})
		if err == nil {
			_, err = p.TPWrite(id, fd, 0, init)
		}
		if err == nil {
			err = p.TEnd(id)
		}
		if err != nil {
			return nil, fmt.Errorf("seeding %s: %w", path, err)
		}
		ent, err := fac.Naming.ResolvePath(path)
		if err != nil {
			return nil, err
		}
		fids[i] = txn.FileID(ent.SystemName)
		bufA, bufB := make([]byte, txnRecSize), make([]byte, txnRecSize)
		w := e.worker(i)
		w.step = func() (int, int64, error) {
			a := w.rng.Intn(txnRecords)
			b := (a + 1 + w.rng.Intn(txnRecords-1)) % txnRecords
			offA, offB := uint64(a*txnRecSize), uint64(b*txnRecSize)
			fill(bufA, tag, offA, gen[a]+1)
			fill(bufB, tag, offB, gen[b]+1)
			t0 := w.tr.now()
			id, err := p.TBegin()
			if err != nil {
				return 0, 0, err
			}
			err = func() error {
				fd, err := p.TOpen(id, path, fit.LockRecord)
				if err != nil {
					return err
				}
				old, err := p.TPRead(id, fd, int64(offA), txnRecSize, true)
				if err != nil {
					return err
				}
				if err := check(old, txnRecSize, tag, offA, gen[a]); err != nil {
					return err
				}
				if _, err := p.TPWrite(id, fd, int64(offA), bufA); err != nil {
					return err
				}
				_, err = p.TPWrite(id, fd, int64(offB), bufB)
				return err
			}()
			if err != nil {
				_ = p.TAbort(id)
				return 0, 0, err
			}
			if err := p.TEnd(id); err != nil {
				return 0, 0, err
			}
			t1 := w.tr.now()
			w.span(kindWrite, t0, t1)
			gen[a]++
			gen[b]++
			return 0, t1 - t0, nil
		}
		r.workers = append(r.workers, w)
	}
	// After the window both writes of every committed transaction must be
	// there: each record is read back at the generation its last commit wrote.
	r.verify = func() error {
		for i, p := range procs {
			tag := ownerTag(txnTagBase, i)
			id, err := p.TBegin()
			if err != nil {
				return err
			}
			fd, err := p.TOpen(id, txnPath(i), fit.LockRecord)
			if err != nil {
				_ = p.TAbort(id)
				return err
			}
			for rec := 0; rec < txnRecords; rec++ {
				data, err := p.TPRead(id, fd, int64(rec*txnRecSize), txnRecSize, false)
				if err == nil {
					err = check(data, txnRecSize, tag, uint64(rec*txnRecSize), gens[i][rec])
				}
				if err != nil {
					_ = p.TAbort(id)
					return fmt.Errorf("committer %d record %d: %w", i+1, rec, err)
				}
			}
			if err := p.TEnd(id); err != nil {
				return err
			}
		}
		return nil
	}
	r.probe = func(out map[string]float64) error { return probeTxn(e, r, fids, gens, out) }
	return r, nil
}
