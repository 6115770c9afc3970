package main

import (
	"fmt"
	"time"

	"repro/internal/fileservice"
	"repro/internal/fit"
	"repro/internal/naming"
	"repro/internal/txn"
)

// Below rpcfs the program holds concrete pointers, so nothing can be
// interposed there from outside. The benchmark instead calls the same public
// functions rpcfs calls, directly, from a single caller, on the rig the
// window just ran on and with ops drawn the same way; each call is timed on
// its own and reported as a mean.

// probeClock sums the time of one kind of call.
type probeClock struct {
	ns int64
	n  int64
}

func (p *probeClock) time(f func() error) error {
	t0 := time.Now()
	err := f()
	p.ns += int64(time.Since(t0))
	p.n++
	return err
}

func (p *probeClock) meanUS() float64 {
	if p.n == 0 {
		return 0
	}
	return float64(p.ns) / float64(p.n) / 1e3
}

// probeOps is the op count of a read/write or txn probe, probeCycles of the
// slower file life cycle.
const (
	probeOps    = 1500
	probeCycles = 300
)

func probeRW(e *env, r *rig, raw []fileservice.FileID, gens [][]uint32, tagBase uint64, out map[string]float64) error {
	files := r.fac.Files
	rng := e.rng(100)
	buf := make([]byte, ioUnit)
	units := len(gens[0])
	var rd, wr probeClock
	for k := 0; k < probeOps; k++ {
		i := k % len(raw)
		tag := ownerTag(tagBase, i)
		u := rng.Intn(units)
		off := int64(u) * ioUnit
		if rng.Float64() < readShare {
			var data []byte
			if err := rd.time(func() (err error) { data, err = files.ReadAt(raw[i], off, ioUnit); return }); err != nil {
				return err
			}
			if err := check(data, ioUnit, tag, uint64(off), uint64(gens[i][u])); err != nil {
				return err
			}
			continue
		}
		gens[i][u]++
		fill(buf, tag, uint64(off), uint64(gens[i][u]))
		if err := wr.time(func() error { _, err := files.WriteAt(raw[i], off, buf); return err }); err != nil {
			return err
		}
	}
	out["fileservice.read_us"] = rd.meanUS()
	out["fileservice.write_us"] = wr.meanUS()
	return nil
}

func probeMeta(r *rig, out map[string]float64) error {
	files, names := r.fac.Files, r.fac.Naming
	buf := make([]byte, metaFileSize)
	var create, del, wr, rd, reg, res, unreg probeClock
	for k := 0; k < probeCycles; k++ {
		path := fmt.Sprintf("/meta/probe/d%d/f%d", k%metaDirs, k)
		var id fileservice.FileID
		if err := create.time(func() (err error) { id, err = files.Create(fit.Attributes{}); return }); err != nil {
			return err
		}
		ent := naming.Entry{Name: naming.Name{"type": "FILE", "path": path}, Type: naming.FileObject, SystemName: uint64(id), Service: "rhodosd"}
		if err := reg.time(func() error { return names.Register(ent) }); err != nil {
			return err
		}
		fill(buf, 0x9B0B, 0, uint64(k))
		if err := wr.time(func() error { _, err := files.WriteAt(id, 0, buf); return err }); err != nil {
			return err
		}
		if err := res.time(func() error { _, err := names.ResolvePath(path); return err }); err != nil {
			return err
		}
		var data []byte
		if err := rd.time(func() (err error) { data, err = files.ReadAt(id, 0, metaFileSize); return }); err != nil {
			return err
		}
		if err := check(data, metaFileSize, 0x9B0B, 0, uint64(k)); err != nil {
			return err
		}
		if err := del.time(func() error { return files.Delete(id) }); err != nil {
			return err
		}
		if err := unreg.time(func() error {
			if n := names.UnregisterSystemName(naming.FileObject, uint64(id)); n != 1 {
				return fmt.Errorf("unregister %s removed %d entries", path, n)
			}
			return nil
		}); err != nil {
			return err
		}
	}
	out["fileservice.create_us"] = create.meanUS()
	out["fileservice.delete_us"] = del.meanUS()
	out["fileservice.write_us"] = wr.meanUS()
	out["fileservice.read_us"] = rd.meanUS()
	out["naming.register_us"] = reg.meanUS()
	out["naming.resolve_us"] = res.meanUS()
	out["naming.unregister_us"] = unreg.meanUS()
	return nil
}

func probeTxn(e *env, r *rig, fids []txn.FileID, gens [][]uint64, out map[string]float64) error {
	txns, names := r.fac.Txns, r.fac.Naming
	rng := e.rng(100)
	bufA, bufB := make([]byte, txnRecSize), make([]byte, txnRecSize)
	var begin, open, pread, pwrite, end, res probeClock
	for k := 0; k < probeOps; k++ {
		i := k % len(fids)
		tag := ownerTag(txnTagBase, i)
		gen := gens[i]
		a := rng.Intn(txnRecords)
		b := (a + 1 + rng.Intn(txnRecords-1)) % txnRecords
		offA, offB := int64(a*txnRecSize), int64(b*txnRecSize)
		fill(bufA, tag, uint64(offA), gen[a]+1)
		fill(bufB, tag, uint64(offB), gen[b]+1)
		if err := res.time(func() error { _, err := names.ResolvePath(txnPath(i)); return err }); err != nil {
			return err
		}
		var id txn.TxnID
		if err := begin.time(func() (err error) { id, err = txns.Begin(1000 + i); return }); err != nil {
			return err
		}
		err := open.time(func() error { return txns.Open(id, fids[i], fit.LockRecord) })
		var old []byte
		if err == nil {
			err = pread.time(func() (err error) { old, err = txns.PRead(id, fids[i], offA, txnRecSize, true); return })
		}
		if err == nil {
			err = check(old, txnRecSize, tag, uint64(offA), gen[a])
		}
		if err == nil {
			err = pwrite.time(func() error { _, err := txns.PWrite(id, fids[i], offA, bufA); return err })
		}
		if err == nil {
			err = pwrite.time(func() error { _, err := txns.PWrite(id, fids[i], offB, bufB); return err })
		}
		if err != nil {
			_ = txns.Abort(id)
			return err
		}
		if err := end.time(func() error { return txns.End(id) }); err != nil {
			return err
		}
		gen[a]++
		gen[b]++
	}
	out["txn.begin_us"] = begin.meanUS()
	out["txn.open_us"] = open.meanUS()
	out["txn.pread_us"] = pread.meanUS()
	out["txn.pwrite_us"] = pwrite.meanUS()
	out["txn.end_us"] = end.meanUS()
	out["naming.resolve_us"] = res.meanUS()
	return nil
}
