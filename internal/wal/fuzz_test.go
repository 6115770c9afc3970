package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"testing"
)

const fuzzFrags = 4 // the fuzzed log region, in fragments

// sealRecords walks region as Replay frames it — magic, then a length that
// stays inside the region — and gives each record so framed a valid
// checksum, so mutated header fields (LSN, generation, the two lengths) reach
// the checks behind the CRC instead of all dying at it.
func sealRecords(region []byte) {
	for off := 0; off+headerSize+trailerLen <= len(region); {
		b := region[off:]
		if binary.BigEndian.Uint32(b[0:]) != recMagic {
			return
		}
		need := int(binary.BigEndian.Uint32(b[4:]))
		if need < headerSize+trailerLen || off+need > len(region) {
			return
		}
		binary.BigEndian.PutUint32(b[need-trailerLen:], crc32.ChecksumIEEE(b[:need-trailerLen]))
		off += need
	}
}

// replayRegion lays region over a fresh log region on stable storage and
// replays it, checking what must hold of any input: no panic, no error, and
// records that account exactly for the bytes Replay consumed — so no record,
// and no allocation sized by one, reaches beyond the region whatever length
// the log claims.
func replayRegion(t *testing.T, region []byte) (*Log, []Record) {
	t.Helper()
	l, st, start := newLogStart(t, fuzzFrags)
	if err := st.Write(start, region); err != nil {
		t.Fatal(err)
	}
	var recs []Record
	consumed := 0
	if err := l.Replay(func(r Record) error {
		recs = append(recs, r)
		consumed += headerSize + len(r.Data) + trailerLen
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if got := l.AppendedBytes(); got != consumed || got > l.Capacity() {
		t.Fatalf("Replay consumed %d bytes of a %d-byte region; its %d records account for %d", got, l.Capacity(), len(recs), consumed)
	}
	return l, recs
}

func sameRecords(a, b []Record) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

func FuzzReplay(f *testing.F) {
	// A valid log of two transactions, as the transaction service writes
	// them, built through the log itself and read back off stable storage.
	seed, st, start := newLogStart(f, fuzzFrags)
	for txn := uint64(1); txn <= 2; txn++ {
		for _, r := range []Record{upd(txn, 8, "first after-image"), upd(txn, 16, "second"), {Type: RecCommit, Txn: txn}} {
			if _, err := seed.Append(r); err != nil {
				f.Fatal(err)
			}
		}
	}
	if err := seed.Sync(); err != nil {
		f.Fatal(err)
	}
	two, err := st.Read(start, fuzzFrags)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(two, false)
	f.Add(make([]byte, fuzzFrags*fragSize), false) // an empty log
	// A record whose length field runs past the region.
	long := append([]byte(nil), two...)
	binary.BigEndian.PutUint32(long[4:], uint32(len(long)+1))
	f.Add(long, true)
	// A record whose two length fields disagree, behind a valid checksum.
	split := append([]byte(nil), two...)
	binary.BigEndian.PutUint32(split[47:], 1<<31)
	f.Add(split, true)
	// The last generation there is, behind a valid checksum.
	lastGen := append([]byte(nil), two...)
	binary.BigEndian.PutUint32(lastGen[16:], 1<<32-1)
	f.Add(lastGen, true)

	f.Fuzz(func(t *testing.T, data []byte, seal bool) {
		region := make([]byte, fuzzFrags*fragSize)
		copy(region, data)
		if seal {
			sealRecords(region)
		}
		l, recs := replayRegion(t, region)
		// The same region replays to the same records.
		if _, again := replayRegion(t, region); !sameRecords(again, recs) {
			t.Fatalf("a second replay of the region returned %d records, the first %d", len(again), len(recs))
		}
		// Replay primes the append state: a record appended and synced behind
		// whatever was replayed is there, after the same records, at the next
		// replay.
		added := Record{Type: RecCommit, Txn: 0xfeed}
		if _, err := l.Append(added); err != nil {
			return // the replayed records fill the region
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		var after []Record
		if err := l.Replay(func(r Record) error {
			after = append(after, r)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(after) <= len(recs) || !sameRecords(after[:len(recs)], recs) {
			t.Fatalf("after an append behind %d replayed records the log replays %d", len(recs), len(after))
		}
		if got := after[len(recs)]; got.Type != added.Type || got.Txn != added.Txn || !bytes.Equal(got.Data, added.Data) {
			t.Fatalf("the appended record replays as %+v", got)
		}
	})
}
