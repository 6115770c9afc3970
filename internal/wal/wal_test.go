package wal

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/device"
	"repro/internal/fault"
	"repro/internal/stable"
)

func newLog(t *testing.T, frags int) (*Log, *stable.Store) {
	l, st, _ := newLogStart(t, frags)
	return l, st
}

func newLogStart(t testing.TB, frags int) (*Log, *stable.Store, int) {
	t.Helper()
	g := device.Geometry{FragmentsPerTrack: 8, Tracks: 8}
	p, err := device.New(g)
	if err != nil {
		t.Fatal(err)
	}
	m, err := device.New(g)
	if err != nil {
		t.Fatal(err)
	}
	st, err := stable.NewStore(p, m)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })
	start, err := st.Allocate(frags)
	if err != nil {
		t.Fatal(err)
	}
	l, err := Open(st, start, frags)
	if err != nil {
		t.Fatal(err)
	}
	return l, st, start
}

func upd(txn uint64, addr uint32, data string) Record {
	return Record{Type: RecUpdate, Txn: txn, File: 1, Disk: 0, Addr: addr, Data: []byte(data)}
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(nil, 0, 1); err == nil {
		t.Fatal("Open(nil) succeeded")
	}
	_, st := newLog(t, 2)
	if _, err := Open(st, 0, 0); err == nil {
		t.Fatal("zero-length region accepted")
	}
	if _, err := Open(st, 0, st.Capacity()+1); err == nil {
		t.Fatal("oversized region accepted")
	}
}

func TestAppendSyncReplay(t *testing.T) {
	l, _ := newLog(t, 4)
	records := []Record{
		upd(1, 100, "hello"),
		upd(1, 104, "world"),
		{Type: RecCommit, Txn: 1},
		upd(2, 200, "tentative"),
	}
	for i, r := range records {
		lsn, err := l.Append(r)
		if err != nil {
			t.Fatalf("Append #%d: %v", i, err)
		}
		if lsn != uint64(i+1) {
			t.Fatalf("lsn = %d, want %d", lsn, i+1)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	var got []Record
	if err := l.Replay(func(r Record) error {
		got = append(got, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(records) {
		t.Fatalf("replayed %d records, want %d", len(got), len(records))
	}
	for i := range records {
		w, g := records[i], got[i]
		if g.Type != w.Type || g.Txn != w.Txn || g.Addr != w.Addr || !bytes.Equal(g.Data, w.Data) {
			t.Fatalf("record %d = %+v, want %+v", i, g, w)
		}
	}
}

func TestUnsyncedRecordsLostInCrash(t *testing.T) {
	l, _ := newLog(t, 4)
	if _, err := l.Append(upd(1, 0, "durable")); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(upd(1, 4, "volatile")); err != nil {
		t.Fatal(err)
	}
	// Crash: no sync. Replay from stable storage must see only the first.
	var got []Record
	if err := l.Replay(func(r Record) error { got = append(got, r); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || string(got[0].Data) != "durable" {
		t.Fatalf("replay after crash = %d records (%q)", len(got), got)
	}
}

func TestDropUnsyncedThenContinue(t *testing.T) {
	l, _ := newLog(t, 4)
	if _, err := l.Append(upd(1, 0, "a")); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(upd(1, 1, "b")); err != nil {
		t.Fatal(err)
	}
	l.DropUnsynced()
	if _, err := l.Append(upd(1, 2, "c")); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	var got []string
	if err := l.Replay(func(r Record) error { got = append(got, string(r.Data)); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "a" || got[1] != "c" {
		t.Fatalf("replay = %v, want [a c]", got)
	}
}

func TestLogFull(t *testing.T) {
	l, _ := newLog(t, 1) // 2 KB region
	big := make([]byte, 1500)
	if _, err := l.Append(Record{Type: RecUpdate, Txn: 1, Data: big}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(Record{Type: RecUpdate, Txn: 1, Data: big}); !errors.Is(err, ErrLogFull) {
		t.Fatalf("second big append = %v, want ErrLogFull", err)
	}
	// After Reset there is room again.
	if err := l.Reset(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(Record{Type: RecUpdate, Txn: 1, Data: big}); err != nil {
		t.Fatalf("append after reset: %v", err)
	}
}

func TestResetClearsStableRegion(t *testing.T) {
	l, _ := newLog(t, 2)
	if _, err := l.Append(upd(1, 0, "x")); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Reset(); err != nil {
		t.Fatal(err)
	}
	count := 0
	if err := l.Replay(func(Record) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 0 {
		t.Fatalf("replay after reset found %d records", count)
	}
}

func TestReplayStopsAtCorruption(t *testing.T) {
	l, st, start := newLogStart(t, 2)
	for i := 0; i < 3; i++ {
		if _, err := l.Append(upd(1, uint32(i), "data")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the middle record on stable storage by rewriting bytes inside
	// the region (both mirrors, so the stable layer can't heal it).
	raw, err := st.Read(start, 2)
	if err != nil {
		t.Fatal(err)
	}
	raw[headerSize+60] ^= 0xFF // somewhere inside record 2
	if err := st.Write(start, raw); err != nil {
		t.Fatal(err)
	}
	var got int
	if err := l.Replay(func(Record) error { got++; return nil }); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("replay past corruption = %d records, want 1", got)
	}
	// New appends continue after the surviving prefix.
	if _, err := l.Append(upd(9, 0, "tail")); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	got = 0
	var last Record
	if err := l.Replay(func(r Record) error { got++; last = r; return nil }); err != nil {
		t.Fatal(err)
	}
	if got != 2 || string(last.Data) != "tail" {
		t.Fatalf("replay after repair-append = %d records, last %q", got, last.Data)
	}
}

func TestReplayFnErrorPropagates(t *testing.T) {
	l, _ := newLog(t, 2)
	if _, err := l.Append(upd(1, 0, "x")); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	boom := fmt.Errorf("boom")
	if err := l.Replay(func(Record) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("Replay = %v, want boom", err)
	}
}

func TestAppendedBytes(t *testing.T) {
	l, _ := newLog(t, 2)
	if l.AppendedBytes() != 0 {
		t.Fatal("fresh log has appended bytes")
	}
	if _, err := l.Append(upd(1, 0, "abcd")); err != nil {
		t.Fatal(err)
	}
	want := headerSize + 4 + trailerLen
	if got := l.AppendedBytes(); got != want {
		t.Fatalf("AppendedBytes = %d, want %d", got, want)
	}
}

func TestRecordTypeString(t *testing.T) {
	for rt, want := range map[RecordType]string{
		RecUpdate: "update", RecCommit: "commit", RecAbort: "abort", RecCheckpoint: "checkpoint",
	} {
		if rt.String() != want {
			t.Errorf("%d.String() = %q, want %q", byte(rt), rt.String(), want)
		}
	}
}

func TestReplayPrimesAppendState(t *testing.T) {
	l, _ := newLog(t, 2)
	if _, err := l.Append(upd(1, 0, "one")); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	// Simulate restart: fresh Log over the same region.
	if err := l.Replay(func(Record) error { return nil }); err != nil {
		t.Fatal(err)
	}
	lsn, err := l.Append(upd(2, 0, "two"))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 2 {
		t.Fatalf("post-replay lsn = %d, want 2", lsn)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	var got []string
	if err := l.Replay(func(r Record) error { got = append(got, string(r.Data)); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1] != "two" {
		t.Fatalf("replay = %v", got)
	}
}

// faultLog is newLogStart over a store carrying a fault injector.
func faultLog(t *testing.T, frags int, inj *fault.Injector) (*Log, *stable.Store, int) {
	t.Helper()
	g := device.Geometry{FragmentsPerTrack: 8, Tracks: 8}
	p, err := device.New(g)
	if err != nil {
		t.Fatal(err)
	}
	m, err := device.New(g)
	if err != nil {
		t.Fatal(err)
	}
	st, err := stable.NewStore(p, m, stable.WithFault(inj))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })
	start, err := st.Allocate(frags)
	if err != nil {
		t.Fatal(err)
	}
	l, err := Open(st, start, frags, WithFault(inj))
	if err != nil {
		t.Fatal(err)
	}
	return l, st, start
}

// replayTxns opens a fresh Log over the same region (a reboot's view of the
// stable media) and returns the transaction of every valid record.
func replayTxns(t *testing.T, st *stable.Store, start, frags int) []uint64 {
	t.Helper()
	l, err := Open(st, start, frags)
	if err != nil {
		t.Fatal(err)
	}
	var txns []uint64
	if err := l.Replay(func(r Record) error {
		txns = append(txns, r.Txn)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return txns
}

func TestSyncFailureAtomicUnderTornWrite(t *testing.T) {
	inj := fault.NewInjector(21)
	l, st, start := faultLog(t, 4, inj)

	// Transaction 1 syncs cleanly.
	if _, err := l.Append(upd(1, 0, "one")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(Record{Type: RecCommit, Txn: 1}); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}

	// Transaction 2 spans fragments; its sync dies in a torn primary write.
	big := make([]byte, 3000)
	for i := range big {
		big[i] = byte(i)
	}
	if _, err := l.Append(Record{Type: RecUpdate, Txn: 2, File: 1, Data: big}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(Record{Type: RecCommit, Txn: 2}); err != nil {
		t.Fatal(err)
	}
	inj.Arm(stable.PtWritePrimary, fault.Action{Kind: fault.KindTorn, Frags: 1})
	err := l.Sync()
	if err == nil || !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Sync over torn write = %v, want injected failure", err)
	}

	// A reboot now replays only transaction 1: the log ends at the first
	// record the torn write cut short.
	got := replayTxns(t, st, start, 4)
	want := []uint64{1, 1}
	if len(got) != len(want) || got[0] != 1 || got[1] != 1 {
		t.Fatalf("replay after torn sync = %v, want %v (txn 2 truncated)", got, want)
	}

	// Failure-atomic: the watermarks did not advance, so a retry rewrites the
	// whole torn range and the records become durable.
	inj.DisarmAll()
	if err := l.Sync(); err != nil {
		t.Fatalf("retry Sync = %v", err)
	}
	got = replayTxns(t, st, start, 4)
	if len(got) != 4 || got[2] != 2 || got[3] != 2 {
		t.Fatalf("replay after retried sync = %v, want txn 2 present", got)
	}
}

func TestSyncSurfacesDeferredStoreError(t *testing.T) {
	inj := fault.NewInjector(22)
	l, st, _ := faultLog(t, 2, inj)

	// A deferred write elsewhere on the store fails in the background; the
	// next commit-point Sync must refuse to complete over it, even with no
	// log bytes of its own to write.
	other, err := st.Allocate(1)
	if err != nil {
		t.Fatal(err)
	}
	inj.Arm(stable.PtDeferredMirror, fault.Action{Kind: fault.KindError, Err: device.ErrFailed})
	if err := st.WriteDeferred(other, make([]byte, device.FragmentSize)); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err == nil || !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Sync = %v, want the deferred-store error surfaced", err)
	}
	// Barrier consumed the error; with the fault gone the commit point clears.
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync after fault cleared = %v", err)
	}
}
