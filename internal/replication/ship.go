// Log shipping: the network half of primary/backup shard replication.
//
// The cluster layer replicates a shard not by copying disk blocks but by
// shipping the stream of committed mutations — rpcfs-level operation records
// — to a backup that re-executes them against its own file service. The
// stream is sequenced and gapless, so the backup's state is a deterministic
// replay of the primary's; each record also carries the originating client's
// identity and the primary's reply, which the backup uses to seed its
// duplicate-request cache so a client retry that lands after a failover
// still gets the exactly-once answer.
//
// Shipper runs on the primary: mutations append records, and Wait blocks
// each mutation's reply until its record is confirmed by the backup — the
// first waiter to find no ship in flight ships everything queued as one
// batch, on its own goroutine. A ship failure marks the stream down — the
// primary then serves solo rather than stall (availability over
// replication; the cluster layer drops the backup from the map). Applier
// runs on the backup: it checks sequencing and CRC, re-executes each
// record, and verifies the replay produced the primary's reply.
package replication

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/rpc"
)

// Named metrics this package records (on the recorder passed in via
// ShipperConfig.Obs / Applier.Obs). Values are unit-less counts for the
// batch histograms and nanoseconds for the latency ones.
const (
	MetricShipBatchRecords = "repl.ship.batch_records"
	MetricShipBatchBytes   = "repl.ship.batch_bytes"
	MetricShipNS           = "repl.ship.ns"
	MetricApplyNS          = "repl.apply.ns"
)

// Rec is one shipped mutation record.
type Rec struct {
	Seq    uint64 // position in the shard's replication stream (1-based)
	Client uint64 // originating rpc client (0: no duplicate-cache seeding)
	CSeq   uint64 // the client's request sequence number
	Method string // rpcfs method name
	Body   []byte // request body, in the shard's wire codec
	Reply  []byte // the primary's reply body (replay must reproduce it)

	// TraceID and SpanID carry the group-commit span that appended the
	// record, in memory only (never encoded into the batch frame): the
	// shipping waiter uses the first traced record to parent its ship span,
	// which then rides the rpc frame header to the backup.
	TraceID uint64
	SpanID  uint64
}

// ErrShipDown marks the replication stream as broken: the backup is
// unreachable or has diverged, and no further records will be confirmed.
var ErrShipDown = errors.New("replication: ship stream down")

// --- batch codec ---
//
// A batch frame is
//
//	count  u32
//	recs   count × [seq u64, client u64, cseq u64, mlen u16, blen u32,
//	                rlen u32, method, body, reply]
//	crc    u32 (IEEE, over everything before it)
//
// The CRC guards against a corrupt or truncated frame replaying garbage
// into the backup's state machine.

// recFixedLen is the fixed part of one encoded record: seq, client, cseq,
// mlen, blen, rlen.
const recFixedLen = 8 + 8 + 8 + 2 + 4 + 4

// appendBatch encodes recs onto dst.
func appendBatch(dst []byte, recs []Rec) []byte {
	start := len(dst)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(recs)))
	for i := range recs {
		r := &recs[i]
		dst = binary.BigEndian.AppendUint64(dst, r.Seq)
		dst = binary.BigEndian.AppendUint64(dst, r.Client)
		dst = binary.BigEndian.AppendUint64(dst, r.CSeq)
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(r.Method)))
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(r.Body)))
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(r.Reply)))
		dst = append(dst, r.Method...)
		dst = append(dst, r.Body...)
		dst = append(dst, r.Reply...)
	}
	return binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

// decodeBatch decodes a batch frame. The returned records alias data.
func decodeBatch(data []byte) ([]Rec, error) {
	if len(data) < 8 {
		return nil, errors.New("replication: short batch frame")
	}
	payload, trailer := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(trailer) {
		return nil, errors.New("replication: batch CRC mismatch")
	}
	count := binary.BigEndian.Uint32(payload)
	off := 4
	// count is the peer's word: bound it by what the payload can hold before
	// sizing anything by it.
	if int64(count) > int64(len(payload)-off)/recFixedLen {
		return nil, errors.New("replication: batch record count exceeds frame")
	}
	recs := make([]Rec, 0, count)
	for i := uint32(0); i < count; i++ {
		if len(payload)-off < recFixedLen {
			return nil, errors.New("replication: truncated batch record")
		}
		var r Rec
		r.Seq = binary.BigEndian.Uint64(payload[off:])
		r.Client = binary.BigEndian.Uint64(payload[off+8:])
		r.CSeq = binary.BigEndian.Uint64(payload[off+16:])
		mlen := int(binary.BigEndian.Uint16(payload[off+24:]))
		blen := int(binary.BigEndian.Uint32(payload[off+26:]))
		rlen := int(binary.BigEndian.Uint32(payload[off+30:]))
		off += recFixedLen
		if len(payload)-off < mlen+blen+rlen {
			return nil, errors.New("replication: truncated batch record")
		}
		r.Method = string(payload[off : off+mlen])
		off += mlen
		r.Body = payload[off : off+blen : off+blen]
		off += blen
		r.Reply = payload[off : off+rlen : off+rlen]
		off += rlen
		recs = append(recs, r)
	}
	if off != len(payload) {
		return nil, errors.New("replication: trailing bytes in batch frame")
	}
	return recs, nil
}

// ShipperConfig configures a Shipper.
type ShipperConfig struct {
	// Send ships one encoded batch frame and returns once the backup has
	// confirmed applying it (typically one rpc round trip). An error marks
	// the stream down. ctx carries the ship span so a tracing transport can
	// propagate it to the backup.
	Send func(ctx context.Context, batch []byte) error
	// OnDown, when set, runs once (from the waiter whose ship failed or
	// MarkDown's caller) when the stream goes down, with the cause.
	OnDown func(err error)
	// Obs, when set, records a ship span and the batch-size/latency
	// histograms per shipped batch.
	Obs *obs.Recorder
}

// Shipper sequences and ships mutation records to one backup, with no
// goroutine of its own. Append assigns the next sequence number and
// enqueues; Wait blocks until a record is confirmed or the stream is down —
// a replicated mutation's acknowledgement rule. A waiter whose record is
// unconfirmed, finding no ship in flight and the queue non-empty, takes the
// whole queue and ships it as one batch, group-commit style: records
// appended meanwhile go in the next batch, shipped by the next waiter that
// wakes.
type Shipper struct {
	send   func(context.Context, []byte) error
	onDown func(error)
	rec    *obs.Recorder
	// The recorder's per-batch value histograms, resolved once.
	batchRecords, batchBytes, shipNS *obs.Histogram

	mu        sync.Mutex
	cond      *sync.Cond
	queue     []Rec
	nextSeq   uint64 // last assigned sequence number
	confirmed uint64 // highest backup-confirmed sequence number
	inflight  uint64 // highest seq in the batch being shipped right now; 0: none
	down      bool
	closed    bool
	frame     []byte // the batch encode buffer, used by one ship at a time
}

// NewShipper returns a shipper; it starts no goroutine.
func NewShipper(cfg ShipperConfig) *Shipper {
	s := &Shipper{
		send: cfg.Send, onDown: cfg.OnDown, rec: cfg.Obs,
		batchRecords: cfg.Obs.ValueHist(MetricShipBatchRecords),
		batchBytes:   cfg.Obs.ValueHist(MetricShipBatchBytes),
		shipNS:       cfg.Obs.ValueHist(MetricShipNS),
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Append assigns the next stream sequence number to r, queues it for
// shipping, and returns the assigned number. ok is false when the stream is
// down or closed — the record is not queued and the caller proceeds solo.
// The record's byte slices are retained until the batch containing them has
// been shipped; callers must not recycle them before Wait returns. Every
// queued record must be waited for: waiters are what ship the queue.
func (s *Shipper) Append(r Rec) (seq uint64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.down || s.closed {
		return 0, false
	}
	s.nextSeq++
	r.Seq = s.nextSeq
	s.queue = append(s.queue, r)
	return r.Seq, true
}

// Wait blocks until seq is confirmed by the backup (true) or the stream
// goes down or closes first (false), shipping the queue itself when no ship
// is in flight. A false return also guarantees no ship still holds the
// record — its byte slices are the caller's again — so a record in the
// batch on the wire when the stream went down is waited out rather than
// released early.
func (s *Shipper) Wait(seq uint64) bool {
	s.mu.Lock()
	for s.confirmed < seq && !((s.down || s.closed) && seq > s.inflight) {
		if s.inflight == 0 && len(s.queue) > 0 {
			s.shipLocked()
			continue
		}
		s.cond.Wait()
	}
	ok := s.confirmed >= seq
	s.mu.Unlock()
	return ok
}

// shipLocked ships the whole queue as one batch. It is called with mu held
// and returns with it held, releasing it for the send. A failed ship marks
// the stream down in the same hold of mu that ends the ship, so no waiter
// can ship a later batch past the gap.
func (s *Shipper) shipLocked() {
	batch := s.queue
	s.queue = nil
	s.inflight = batch[len(batch)-1].Seq
	s.mu.Unlock()

	s.frame = appendBatch(s.frame[:0], batch)
	// The ship span continues the group-commit span of the first traced
	// record in the batch (later records in the same batch share the ride
	// but not the span), and the Send context carries it across the wire to
	// the backup.
	var tid, sid uint64
	for i := range batch {
		if batch[i].TraceID != 0 {
			tid, sid = batch[i].TraceID, batch[i].SpanID
			break
		}
	}
	ctx, op := s.rec.StartRemoteOp(context.Background(), obs.LayerReplication, "ship", tid, sid)
	op.SetCount(len(batch))
	op.AddBytes(len(s.frame))
	t0 := time.Now()
	err := s.send(ctx, s.frame)
	op.End(err)
	s.batchRecords.Record(time.Duration(len(batch)))
	s.batchBytes.Record(time.Duration(len(s.frame)))
	s.shipNS.Record(time.Since(t0))

	s.mu.Lock()
	s.inflight = 0
	s.cond.Broadcast()
	if err == nil {
		s.confirmed = batch[len(batch)-1].Seq
		return
	}
	if s.markDownLocked() {
		s.mu.Unlock()
		s.onDown(fmt.Errorf("%w: %v", ErrShipDown, err))
		s.mu.Lock()
	}
}

// Down reports whether the stream is down.
func (s *Shipper) Down() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.down
}

// MarkDown forces the stream down with cause (heartbeat failure path);
// waiters unblock with false and OnDown fires once.
func (s *Shipper) MarkDown(cause error) {
	s.mu.Lock()
	fire := s.markDownLocked()
	s.mu.Unlock()
	if fire {
		s.onDown(cause)
	}
}

// markDownLocked takes the stream down, reporting whether OnDown is to fire
// for it: set, and the stream neither down nor closed before.
func (s *Shipper) markDownLocked() bool {
	if s.down || s.closed {
		return false
	}
	s.down = true
	s.queue = nil
	s.cond.Broadcast()
	return s.onDown != nil
}

// Close stops the stream and waits out a ship in flight. Unconfirmed
// records are abandoned (waiters get false); OnDown does not fire.
func (s *Shipper) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.queue = nil
	s.cond.Broadcast()
	for s.inflight != 0 {
		s.cond.Wait()
	}
}

// Applier is the backup's replay half: it validates and re-executes shipped
// batches in stream order.
type Applier struct {
	// Apply re-executes one record against the backup's state machine and
	// returns the reply it produced. Its context carries the backup-apply
	// span, so the backup's own fileservice/txn/wal spans nest inside the
	// shipped trace.
	Apply rpc.Link
	// Seed, when set, records (client, cseq) → reply in the backup's
	// duplicate-request cache, so a client retry after failover is answered
	// without re-execution. reply is owned by the callee.
	Seed func(client, cseq uint64, reply []byte)
	// Obs, when set, records a backup-apply span and per-record apply
	// latency.
	Obs *obs.Recorder

	mu      sync.Mutex
	applied uint64 // highest applied sequence number
	// applyNS is Obs's MetricApplyNS histogram, resolved by the first batch.
	applyNS *obs.Histogram
}

// Applied returns the highest applied sequence number.
func (a *Applier) Applied() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.applied
}

// ApplyBatch decodes and replays one batch frame. Records at or below the
// applied watermark are skipped (a resent batch is harmless); a gap or a
// replay that produces a different reply than the primary's is divergence
// and fails the batch — the stream cannot safely continue. Returns the new
// applied watermark. ctx is the receiving rpc's: each record replays under a
// backup-apply span nested in its tree (the primary's ship span, when the
// batch arrived traced).
func (a *Applier) ApplyBatch(ctx context.Context, data []byte) (uint64, error) {
	recs, err := decodeBatch(data)
	if err != nil {
		return a.Applied(), err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.applyNS == nil {
		a.applyNS = a.Obs.ValueHist(MetricApplyNS)
	}
	for i := range recs {
		r := &recs[i]
		if r.Seq <= a.applied {
			continue
		}
		if r.Seq != a.applied+1 {
			return a.applied, fmt.Errorf("replication: sequence gap: have %d, got %d", a.applied, r.Seq)
		}
		// Only successful mutations are shipped, so a replay that errors —
		// or answers differently — means the replicas have diverged.
		t0 := time.Now()
		rctx, op := a.Obs.StartOp(ctx, obs.LayerReplication, "backup-apply")
		out, aerr := a.Apply(rctx, r.Method, r.Body)
		op.End(aerr)
		a.applyNS.Record(time.Since(t0))
		if aerr != nil {
			return a.applied, fmt.Errorf("replication: divergence at seq %d (%s): replay failed: %v", r.Seq, r.Method, aerr)
		}
		if !bytes.Equal(out, r.Reply) {
			return a.applied, fmt.Errorf("replication: divergence at seq %d (%s): replay reply differs", r.Seq, r.Method)
		}
		if a.Seed != nil && r.Client != 0 {
			a.Seed(r.Client, r.CSeq, out)
		}
		a.applied = r.Seq
	}
	return a.applied, nil
}
