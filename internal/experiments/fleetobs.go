package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/obs"
)

// E22 parameters: a small replicated rig — the point is the telemetry, not
// the load — driven just long enough for the failover machinery to leave a
// full event trail.
const (
	e22Servers = 2
	e22Clients = 4
	e22Victim  = 1
	e22Phase   = 300 * time.Millisecond
)

// E22FleetObservability exercises the cluster-wide observability story end
// to end on the replicated failover rig: every server (and the client) gets
// its own recorder — standing in for per-process recorders scraped over
// /debug — one routed mutation is traced across client, router, primary,
// group commit, the replication ship, and the backup's apply, the E21
// failover cell runs under telemetry, and the per-node profiles are merged
// into one fleet-wide per-layer table (the log-bucket histograms merge
// exactly; see obs.MergeProfiles).
func E22FleetObservability() (*Table, error) {
	t := &Table{
		ID:      "E22",
		Title:   "Fleet observability: cross-node traces, failover events, merged profiles",
		Claim:   "one trace ID spans client, router, primary, group commit, ship, and backup apply across recorders; the failover promotion window is read from the event log, not inferred from latency tails",
		Columns: []string{"cell", "ok", "err", "wall", "note"},
	}
	rig, err := newFailoverRig(e22Servers, e22Victim, 500*time.Millisecond, failoverReplTTL)
	if err != nil {
		return nil, err
	}
	defer rig.close()

	// One recorder for the whole client side: all routers and agent
	// machines share it, as they would inside one client process.
	// It traces every op — the traced mutation below must be one of them —
	// while the servers sample: they trace it because it arrives with the
	// client's trace identity.
	clientRec := obs.New(obs.WithSampleRate(1))
	cls, closeClients, err := dialPinned(rig.m, e22Clients, failoverRetries, "e22c", clientRec)
	defer closeClients()
	if err != nil {
		return nil, err
	}

	// The traced mutation, quiesced, while replication is live: client 1 is
	// pinned to the victim shard, so this single write crosses client →
	// router → primary serve → group commit → ship → backup apply. The
	// primary holds the reply until the backup confirmed this mutation's
	// ship, so by the time PWrite returns every span in the trace has ended.
	victimClient := cls[e22Victim%e22Clients]
	if _, err := victimClient.agent.WriteAt(0, make([]byte, 256)); err != nil {
		return nil, fmt.Errorf("traced mutation: %w", err)
	}
	tree, covered, missing := e22StitchedTree(clientRec, rig.recs[e22Victim], rig.bRec)
	t.AddRow("traced-write", 1, 0, "—", fmt.Sprintf("spans found: %s", strings.Join(covered, ", ")))
	if tree == nil {
		t.AddRow("traced-write", 0, 1, "—", "no stitched cross-node tree for the routed mutation")
	}
	if len(missing) > 0 {
		t.AddRow("traced-write", 0, 1, "—", fmt.Sprintf("spans missing from the stitched tree: %s", strings.Join(missing, ", ")))
	}

	// The failover cell under telemetry.
	res := rig.runPhases(cls, e22Phase)
	for _, ph := range res.Phases {
		note := fmt.Sprintf("victim %d ok / %d err", ph.VictimOK, ph.VictimErr)
		if ph.Name == "failover" {
			note += fmt.Sprintf("; promoted=%v", res.Promoted)
		}
		t.AddRow("failover/"+ph.Name, ph.SurvivorOK+ph.VictimOK, ph.SurvivorErr+ph.VictimErr, ph.Wall, note)
	}
	t.AddRow("promotion", boolToInt(res.PromotionWindow > 0), 0, res.PromotionWindow,
		"kill→promote, from the backup's event log")

	// Fleet aggregation: the same merge the rhodos-trace -cluster scraper
	// performs over /debug/profile, here over the in-process recorders.
	profiles := []*obs.Profile{clientRec.Profile(), rig.bRec.Profile()}
	for _, rec := range rig.recs {
		profiles = append(profiles, rec.Profile())
	}
	if t.Profile, err = obs.MergeProfiles(profiles...); err != nil {
		return nil, err
	}

	t.Notes = append(t.Notes,
		fmt.Sprintf("%d shards + 1 hot backup + 1 client process, one recorder each; profile below is the %d-recorder merge", e22Servers, len(profiles)),
		fmt.Sprintf("promotion window %v measured kill→promote from the backup's event log (repl TTL %s + watchdog tick)", res.PromotionWindow.Round(time.Millisecond), failoverReplTTL))
	for _, e := range res.Events {
		t.Notes = append(t.Notes, fmt.Sprintf("backup event: %-8s %s", e.Name, e.Detail))
	}
	if tree != nil {
		var b strings.Builder
		tree.Render(&b)
		t.Notes = append(t.Notes, "cross-node span tree for the one routed mutation (client + primary + backup recorders, stitched by remote-parent ID):\n"+
			strings.TrimRight(b.String(), "\n"))
	}
	return t, nil
}

// e22StitchedTree stitches the three recorders' flight trees and returns
// the traced mutation's tree plus which of the expected cross-node hops it
// covers. Expected spans: the client's agent root, the router hop, the
// primary's rpc serve, the group commit, the replication ship, and the
// backup's apply.
func e22StitchedTree(client, primary, backup *obs.Recorder) (*obs.SpanData, []string, []string) {
	var trees []*obs.SpanData
	trees = append(trees, client.Flight()...)
	trees = append(trees, primary.Flight()...)
	trees = append(trees, backup.Flight()...)
	stitched := obs.StitchTraces(trees)

	// The traced write is the client's most recent agent-layer writeAt root.
	var root *obs.SpanData
	for _, tr := range stitched {
		if tr.Layer == "agent" && tr.Op == "writeAt" {
			root = tr
		}
	}
	if root == nil {
		return nil, nil, []string{"agent/writeAt root"}
	}
	want := map[string]string{
		"agent/writeAt":            "client",
		"cluster/writeAt":          "router",
		"rpc/fs.writeAt":           "primary-serve",
		"cluster/group-commit":     "group-commit",
		"replication/ship":         "ship",
		"rpc/cluster.repl.apply":   "backup-serve",
		"replication/backup-apply": "backup-apply",
	}
	found := map[string]bool{}
	var walk func(d *obs.SpanData)
	walk = func(d *obs.SpanData) {
		if name, ok := want[d.Layer+"/"+d.Op]; ok {
			found[name] = true
		}
		for _, c := range d.Children {
			walk(c)
		}
	}
	walk(root)
	order := []string{"client", "router", "primary-serve", "group-commit", "ship", "backup-serve", "backup-apply"}
	var covered, missing []string
	for _, n := range order {
		if found[n] {
			covered = append(covered, n)
		} else {
			missing = append(missing, n)
		}
	}
	return root, covered, missing
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
