package replication

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"runtime"
	"sync"
	"testing"
	"time"
)

func sampleRecs() []Rec {
	return []Rec{
		{Client: 7, CSeq: 101, Method: "fs.create", Body: []byte("body-one"), Reply: []byte("reply-one")},
		{Client: 0, CSeq: 0, Method: "fs.writeAt", Body: bytes.Repeat([]byte{0xAB}, 300), Reply: []byte{1}},
		{Client: 9, CSeq: 5, Method: "fs.truncate", Body: nil, Reply: nil},
	}
}

func TestBatchCodecRoundTrip(t *testing.T) {
	recs := sampleRecs()
	for i := range recs {
		recs[i].Seq = uint64(i + 1)
	}
	frame := appendBatch(nil, recs)
	got, err := decodeBatch(frame)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		w, g := recs[i], got[i]
		if g.Seq != w.Seq || g.Client != w.Client || g.CSeq != w.CSeq || g.Method != w.Method ||
			!bytes.Equal(g.Body, w.Body) || !bytes.Equal(g.Reply, w.Reply) {
			t.Fatalf("record %d: got %+v, want %+v", i, g, w)
		}
	}

	// An empty batch still frames and round-trips (count 0 + CRC).
	empty, err := decodeBatch(appendBatch(nil, nil))
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty batch: %d records, %v", len(empty), err)
	}
}

func TestBatchCodecRejectsCorruption(t *testing.T) {
	frame := appendBatch(nil, sampleRecs())

	// Flip one payload byte: the CRC must catch it.
	bad := append([]byte(nil), frame...)
	bad[5] ^= 0xFF
	if _, err := decodeBatch(bad); err == nil {
		t.Fatal("corrupt frame decoded")
	}

	// Truncations at every length must error, never panic or misdecode.
	for n := 0; n < len(frame); n++ {
		if _, err := decodeBatch(frame[:n]); err == nil {
			t.Fatalf("truncated frame (%d of %d bytes) decoded", n, len(frame))
		}
	}

	// Trailing garbage after the declared records fails even with a valid CRC
	// over the whole thing.
	extra := appendBatch(nil, sampleRecs()[:1])
	payload := append(append([]byte(nil), extra[:len(extra)-4]...), 0xDE, 0xAD)
	rebuilt := binary.BigEndian.AppendUint32(payload, crc32.ChecksumIEEE(payload))
	if _, err := decodeBatch(rebuilt); err == nil {
		t.Fatal("frame with trailing bytes decoded")
	}
}

func TestShipperConfirmsInOrder(t *testing.T) {
	var mu sync.Mutex
	var shipped []Rec
	s := NewShipper(ShipperConfig{Send: func(_ context.Context, batch []byte) error {
		recs, err := decodeBatch(batch)
		if err != nil {
			return err
		}
		mu.Lock()
		for _, r := range recs {
			shipped = append(shipped, Rec{Seq: r.Seq, Method: r.Method, Body: append([]byte(nil), r.Body...)})
		}
		mu.Unlock()
		return nil
	}})
	defer s.Close()

	const N = 50
	var wg sync.WaitGroup
	fails := make(chan string, N)
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			seq, ok := s.Append(Rec{Method: "m", Body: []byte{byte(i)}})
			if !ok {
				fails <- fmt.Sprintf("append %d refused", i)
				return
			}
			if !s.Wait(seq) {
				fails <- fmt.Sprintf("wait %d returned false", seq)
			}
		}(i)
	}
	wg.Wait()
	close(fails)
	for f := range fails {
		t.Error(f)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(shipped) != N {
		t.Fatalf("shipped %d records, want %d", len(shipped), N)
	}
	// The stream must be gapless and in order regardless of batching.
	for i, r := range shipped {
		if r.Seq != uint64(i+1) {
			t.Fatalf("shipped seq %d at position %d", r.Seq, i)
		}
	}
}

func TestShipperSendFailureMarksDown(t *testing.T) {
	cause := errors.New("backup unreachable")
	var downs []error
	var mu sync.Mutex
	s := NewShipper(ShipperConfig{
		Send:   func(context.Context, []byte) error { return cause },
		OnDown: func(err error) { mu.Lock(); downs = append(downs, err); mu.Unlock() },
	})
	defer s.Close()

	seq, ok := s.Append(Rec{Method: "m"})
	if !ok {
		t.Fatal("append refused on a fresh stream")
	}
	if s.Wait(seq) {
		t.Fatal("Wait confirmed a record the backup never acked")
	}
	if !s.Down() {
		t.Fatal("stream not marked down after send failure")
	}
	// Post-down appends are refused: the caller proceeds solo.
	if _, ok := s.Append(Rec{Method: "m2"}); ok {
		t.Fatal("append accepted on a down stream")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(downs) != 1 || !errors.Is(downs[0], ErrShipDown) {
		t.Fatalf("OnDown fired %d times with %v; want once with ErrShipDown", len(downs), downs)
	}
}

// TestShipperMarkDownWaitsOutInflight pins the body-lifetime guarantee: a
// Wait that returns false must mean no ship still holds the record, even
// when MarkDown lands while that record's batch is on the wire.
func TestShipperMarkDownWaitsOutInflight(t *testing.T) {
	sendEntered := make(chan struct{})
	sendRelease := make(chan struct{})
	s := NewShipper(ShipperConfig{Send: func(context.Context, []byte) error {
		close(sendEntered)
		<-sendRelease
		return errors.New("severed mid-flight")
	}})
	defer s.Close()

	seq, ok := s.Append(Rec{Method: "m", Body: []byte("held")})
	if !ok {
		t.Fatal("append refused")
	}
	// The first waiter ships the record, and holds it on the wire now.
	shipperDone := make(chan bool, 1)
	go func() { shipperDone <- s.Wait(seq) }()
	<-sendEntered

	waitDone := make(chan bool, 1)
	go func() { waitDone <- s.Wait(seq) }()

	s.MarkDown(errors.New("heartbeat failed"))
	select {
	case <-waitDone:
		t.Fatal("Wait returned while the shipping waiter still held the record")
	case <-time.After(50 * time.Millisecond):
	}

	close(sendRelease)
	for _, done := range []chan bool{waitDone, shipperDone} {
		select {
		case ok := <-done:
			if ok {
				t.Fatal("Wait confirmed a record on a down stream")
			}
		case <-time.After(2 * time.Second):
			t.Fatal("Wait never unblocked after the send released the record")
		}
	}
}

// TestShipperCloseWaitsOutInflight: Close returns only once the ship on the
// wire has ended, so nothing sends on the backup connection after it.
func TestShipperCloseWaitsOutInflight(t *testing.T) {
	sendEntered := make(chan struct{})
	sendRelease := make(chan struct{})
	s := NewShipper(ShipperConfig{Send: func(context.Context, []byte) error {
		close(sendEntered)
		<-sendRelease
		return nil
	}})
	seq, ok := s.Append(Rec{Method: "m"})
	if !ok {
		t.Fatal("append refused")
	}
	waitDone := make(chan bool, 1)
	go func() { waitDone <- s.Wait(seq) }()
	<-sendEntered

	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	select {
	case <-closed:
		t.Fatal("Close returned while a ship was in flight")
	case <-time.After(50 * time.Millisecond):
	}
	close(sendRelease)
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Close never returned after the ship ended")
	}
	// The ship the close waited out succeeded: its record is confirmed.
	if !<-waitDone {
		t.Fatal("Wait did not confirm a record the backup acked")
	}
	if _, ok := s.Append(Rec{Method: "m2"}); ok {
		t.Fatal("append accepted on a closed stream")
	}
}

// TestNewShipperStartsNoGoroutine: the waiter ships, on its own goroutine —
// one goroutine appends, waits, and sees its record shipped and confirmed.
func TestNewShipperStartsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	shipped := 0
	s := NewShipper(ShipperConfig{Send: func(context.Context, []byte) error {
		shipped++
		return nil
	}})
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("NewShipper started %d goroutine(s)", n-before)
	}
	for i := 0; i < 3; i++ {
		seq, ok := s.Append(Rec{Method: "m"})
		if !ok || !s.Wait(seq) {
			t.Fatalf("record %d: append %v, not confirmed", i, ok)
		}
	}
	s.Close()
	if shipped != 3 {
		t.Fatalf("%d ships for 3 waited records, want 3", shipped)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutine(s) left after Close", n-before)
	}
}

func TestApplierReplaysAndSeeds(t *testing.T) {
	var applied []string
	type seeded struct{ client, cseq uint64 }
	var seeds []seeded
	a := &Applier{
		Apply: func(_ context.Context, method string, body []byte) ([]byte, error) {
			applied = append(applied, method)
			return []byte("ok:" + method), nil
		},
		Seed: func(client, cseq uint64, reply []byte) {
			seeds = append(seeds, seeded{client, cseq})
		},
	}
	batch := appendBatch(nil, []Rec{
		{Seq: 1, Client: 7, CSeq: 100, Method: "a", Reply: []byte("ok:a")},
		{Seq: 2, Client: 0, CSeq: 0, Method: "b", Reply: []byte("ok:b")},
	})
	if err := a.ApplyBatch(context.Background(), batch); err != nil || a.Applied() != 2 {
		t.Fatalf("ApplyBatch = %v, watermark %d", err, a.Applied())
	}
	if len(applied) != 2 || applied[0] != "a" || applied[1] != "b" {
		t.Fatalf("applied %v", applied)
	}
	// Client 0 records must not seed the duplicate cache.
	if len(seeds) != 1 || seeds[0] != (seeded{7, 100}) {
		t.Fatalf("seeded %v, want [{7 100}]", seeds)
	}

	// A resent batch is skipped idempotently.
	if err := a.ApplyBatch(context.Background(), batch); err != nil || a.Applied() != 2 {
		t.Fatalf("resent ApplyBatch = %v, watermark %d", err, a.Applied())
	}
	if len(applied) != 2 {
		t.Fatalf("resend re-executed: applied %v", applied)
	}

	// A sequence gap is divergence territory: fail, don't apply.
	gap := appendBatch(nil, []Rec{{Seq: 4, Method: "d", Reply: []byte("ok:d")}})
	if err := a.ApplyBatch(context.Background(), gap); err == nil {
		t.Fatal("sequence gap applied")
	}
	if a.Applied() != 2 {
		t.Fatalf("watermark moved across a gap: %d", a.Applied())
	}
}

func TestApplierDetectsDivergence(t *testing.T) {
	newApplier := func(applyErr error, reply string) *Applier {
		return &Applier{Apply: func(context.Context, string, []byte) ([]byte, error) {
			return []byte(reply), applyErr
		}}
	}
	batch := appendBatch(nil, []Rec{{Seq: 1, Method: "m", Reply: []byte("primary-said")}})

	// Replay produced a different reply than the primary recorded.
	a := newApplier(nil, "backup-said")
	if err := a.ApplyBatch(context.Background(), batch); err == nil {
		t.Fatal("reply mismatch applied")
	}
	if a.Applied() != 0 {
		t.Fatalf("watermark advanced past divergence: %d", a.Applied())
	}

	// Replay errored where the primary succeeded (only successful mutations
	// are shipped).
	a = newApplier(errors.New("no such file"), "")
	if err := a.ApplyBatch(context.Background(), batch); err == nil {
		t.Fatal("failed replay applied")
	}
}
