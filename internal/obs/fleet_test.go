package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"
	"time"
)

// TestHistDataMergeDisjoint merges snapshots whose bucket sets do not
// overlap at all — the cross-process case where one shard saw only fast
// operations and another only slow ones.
func TestHistDataMergeDisjoint(t *testing.T) {
	var fast, slow Histogram
	for i := 0; i < 100; i++ {
		fast.Record(time.Microsecond)
		slow.Record(time.Second)
	}
	a, b := fast.Data(), slow.Data()
	merged := &HistData{}
	merged.Merge(a)
	merged.Merge(b)
	if merged.Count != 200 {
		t.Fatalf("merged count = %d, want 200", merged.Count)
	}
	if merged.MaxNS != int64(time.Second) {
		t.Fatalf("merged max = %d, want 1s", merged.MaxNS)
	}
	if len(merged.Buckets) != len(a.Buckets)+len(b.Buckets) {
		t.Fatalf("disjoint merge has %d buckets, inputs had %d and %d",
			len(merged.Buckets), len(a.Buckets), len(b.Buckets))
	}
	// Half the mass is at ~1µs, half at ~1s: p25 must land near the former,
	// p75 near the latter.
	if q := merged.Quantile(0.25); q > 10*time.Microsecond {
		t.Fatalf("p25 = %v, want ~1µs", q)
	}
	if q := merged.Quantile(0.75); q < 500*time.Millisecond {
		t.Fatalf("p75 = %v, want ~1s", q)
	}
	// Quantiles never exceed the recorded max.
	if q := merged.Quantile(1.0); q > time.Second || q < 500*time.Millisecond {
		t.Fatalf("p100 = %v, want within (500ms, 1s]", q)
	}
}

// TestHistDataMergePartialOverlap merges snapshots sharing some buckets:
// shared buckets sum, unshared carry over.
func TestHistDataMergePartialOverlap(t *testing.T) {
	var a, b Histogram
	for i := 0; i < 50; i++ {
		a.Record(time.Millisecond) // shared bucket
		b.Record(time.Millisecond)
		a.Record(time.Microsecond) // a only
		b.Record(time.Second)      // b only
	}
	da, db := a.Data(), b.Data()
	merged := &HistData{}
	merged.Merge(da)
	merged.Merge(db)
	if merged.Count != da.Count+db.Count {
		t.Fatalf("count = %d, want %d", merged.Count, da.Count+db.Count)
	}
	if merged.SumNS != da.SumNS+db.SumNS {
		t.Fatalf("sum = %d, want %d", merged.SumNS, da.SumNS+db.SumNS)
	}
	var total int64
	for _, n := range merged.Buckets {
		total += n
	}
	if total != merged.Count {
		t.Fatalf("bucket mass %d != count %d", total, merged.Count)
	}
	// Merging into an empty HistData must reproduce the source exactly.
	clone := &HistData{}
	clone.Merge(da)
	if clone.Count != da.Count || clone.SumNS != da.SumNS || clone.MaxNS != da.MaxNS {
		t.Fatalf("identity merge: %+v != %+v", clone, da)
	}
	// Nil operand and empty-histogram snapshots are no-ops.
	merged.Merge(nil)
	var empty Histogram
	if d := empty.Data(); d != nil {
		t.Fatalf("empty histogram Data() = %+v, want nil", d)
	}
	if merged.Count != da.Count+db.Count {
		t.Fatalf("nil merge changed count: %d", merged.Count)
	}
}

// TestHistDataJSONRoundTrip ensures the snapshot survives the
// /debug/profile wire format (int map keys marshal as strings).
func TestHistDataJSONRoundTrip(t *testing.T) {
	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	d := h.Data()
	blob, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	var back HistData
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.Count != d.Count || back.SumNS != d.SumNS || back.MaxNS != d.MaxNS {
		t.Fatalf("round trip lost totals: %+v vs %+v", back, d)
	}
	if len(back.Buckets) != len(d.Buckets) {
		t.Fatalf("round trip lost buckets: %d vs %d", len(back.Buckets), len(d.Buckets))
	}
	if p50, want := back.Quantile(0.50), d.Quantile(0.50); p50 != want {
		t.Fatalf("round-trip p50 = %v, want %v", p50, want)
	}
}

// TestMergeProfiles merges two recorders' profiles and checks that layer
// quantiles are recomputed from the combined buckets, not averaged.
func TestMergeProfiles(t *testing.T) {
	r1, r2 := New(), New()
	for i := 0; i < 90; i++ {
		r1.Observe(LayerRPC, time.Microsecond, 0)
	}
	for i := 0; i < 10; i++ {
		r2.Observe(LayerRPC, time.Second, 0)
	}
	r1.Gauge("g").Add(3)
	r2.Gauge("g").Add(4)
	r1.ValueHist("v").Record(5)
	r2.ValueHist("v").Record(500000)
	r2.Event("promote", "x")

	m, err := MergeProfiles(r1.Profile(), r2.Profile(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var rpc *LayerStats
	for i := range m.Layers {
		if m.Layers[i].Layer == "rpc" {
			rpc = &m.Layers[i]
		}
	}
	if rpc == nil {
		t.Fatal("merged profile lost the rpc layer")
	}
	if rpc.Count != 100 {
		t.Fatalf("merged rpc count = %d, want 100", rpc.Count)
	}
	// 90% of mass at 1µs: p50 small, p99 ~1s. A naive average of the two
	// profiles' p99s could not produce this split.
	if p50 := time.Duration(rpc.WallP50NS); p50 > 10*time.Microsecond {
		t.Fatalf("merged p50 = %v, want ~1µs", p50)
	}
	if p99 := time.Duration(rpc.WallP99NS); p99 < 500*time.Millisecond {
		t.Fatalf("merged p99 = %v, want ~1s", p99)
	}
	if m.Gauges["g"] != 7 {
		t.Fatalf("merged gauge = %d, want 7", m.Gauges["g"])
	}
	if m.Events != 1 {
		t.Fatalf("merged events = %d, want 1", m.Events)
	}
	var v *ValueStats
	for i := range m.Values {
		if m.Values[i].Name == "v" {
			v = &m.Values[i]
		}
	}
	if v == nil || v.Count != 2 {
		t.Fatalf("merged value hist = %+v, want count 2", v)
	}
}

// TestStitchTraces reconstructs a cross-process span tree: a client root,
// a server continuation root carrying ParentSpanID, and a second hop. Only
// the client decided to trace: the servers sample nothing themselves and
// still keep the trees of a request that arrives with trace identity.
func TestStitchTraces(t *testing.T) {
	client, server, backup := New(WithSampleRate(1)), New(WithSampleRate(0)), New(WithSampleRate(0))

	ctx, root := client.StartRoot(context.Background(), LayerAgent, "writeAt")
	_, child := StartSpan(ctx, LayerCluster, "writeAt")
	tid, psid := child.TraceID(), child.SpanID()
	// Server continues the client's tree from the wire identity.
	sctx, serve := server.StartRemoteOp(context.Background(), LayerRPC, "fs.writeAt", tid, psid)
	_, gc := StartSpan(sctx, LayerCluster, "group-commit")
	// Backup continues from the group-commit span.
	_, apply := backup.StartRemoteOp(context.Background(), LayerReplication, "backup-apply", tid, gc.SpanID())
	apply.End(nil)
	gc.End(nil)
	serve.End(nil)
	child.End(nil)
	root.End(nil)

	var trees []*SpanData
	trees = append(trees, client.Flight()...)
	trees = append(trees, server.Flight()...)
	trees = append(trees, backup.Flight()...)
	if len(trees) != 3 {
		t.Fatalf("expected 3 per-process trees, got %d", len(trees))
	}
	stitched := StitchTraces(trees)
	if len(stitched) != 1 {
		t.Fatalf("stitched to %d roots, want 1", len(stitched))
	}
	got := stitched[0]
	if got.Layer != "agent" || got.Op != "writeAt" {
		t.Fatalf("stitched root = %s/%s, want agent/writeAt", got.Layer, got.Op)
	}
	// Walk: root → cluster/writeAt → rpc/fs.writeAt → cluster/group-commit
	// → replication/backup-apply.
	depths := []struct{ layer, op string }{
		{"cluster", "writeAt"},
		{"rpc", "fs.writeAt"},
		{"cluster", "group-commit"},
		{"replication", "backup-apply"},
	}
	cur := got
	for _, want := range depths {
		if len(cur.Children) != 1 {
			t.Fatalf("span %s/%s has %d children, want 1", cur.Layer, cur.Op, len(cur.Children))
		}
		cur = cur.Children[0]
		if cur.Layer != want.layer || cur.Op != want.op {
			t.Fatalf("got %s/%s, want %s/%s", cur.Layer, cur.Op, want.layer, want.op)
		}
	}
	if all := FindTrace(trees, tid); len(all) != 3 {
		t.Fatalf("FindTrace found %d trees, want 3", len(all))
	}
	// A tree whose remote parent is absent stays a root.
	orphanRec := New()
	_, orphan := orphanRec.StartRemoteOp(context.Background(), LayerRPC, "x", 999, 12345)
	orphan.End(nil)
	if got := StitchTraces(orphanRec.Flight()); len(got) != 1 || got[0].Op != "x" {
		t.Fatalf("orphan continuation did not survive as root: %+v", got)
	}
}

// TestEventRing checks the bounded event log: capacity, ordering, and the
// total count surviving wraparound.
func TestEventRing(t *testing.T) {
	const capacity, added = defaultEventCap, defaultEventCap + 6
	r := New()
	for i := 0; i < added; i++ {
		r.Eventf("e", "event %d", i)
	}
	evs := r.Events()
	if len(evs) != capacity {
		t.Fatalf("retained %d events, want %d", len(evs), capacity)
	}
	if r.EventTotal() != added {
		t.Fatalf("total = %d, want %d", r.EventTotal(), added)
	}
	// Oldest-first snapshot of the last capacity.
	for i, e := range evs {
		if want := fmt.Sprintf("event %d", added-capacity+i); e.Detail != want {
			t.Fatalf("event %d = %q, want %q", i, e.Detail, want)
		}
	}
	if evs[0].WallUnixNS == 0 {
		t.Fatal("event has no wall timestamp")
	}
	// Nil recorder: all no-ops.
	var nilRec *Recorder
	nilRec.Event("x", "y")
	if nilRec.Events() != nil || nilRec.EventTotal() != 0 {
		t.Fatal("nil recorder event accessors not empty")
	}
}

// A profile from before the log-linear buckets (no version) indexes its
// HistData differently, so merging it is refused, not silently wrong.
func TestMergeProfilesRefusesOtherBucketScheme(t *testing.T) {
	r := New()
	r.Observe(LayerRPC, time.Millisecond, 0)
	blob, err := r.Profile().JSON()
	if err != nil {
		t.Fatal(err)
	}
	var cur, old Profile
	if err := json.Unmarshal(blob, &cur); err != nil {
		t.Fatal(err)
	}
	if cur.Version != ProfileVersion {
		t.Fatalf("profile JSON carries version %d, want %d", cur.Version, ProfileVersion)
	}
	if _, err := MergeProfiles(&cur, &cur); err != nil {
		t.Fatalf("merging two current profiles: %v", err)
	}
	old = cur
	old.Version = 0
	if _, err := MergeProfiles(&cur, &old); err == nil {
		t.Fatal("merged a version-0 profile's power-of-two bucket indexes into log-linear ones")
	}
}
