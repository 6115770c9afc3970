package main

// Fleet scraper mode: -cluster polls every listed rhodosd debug address,
// merges the per-node profiles into one fleet-wide per-layer breakdown
// (the log-bucket histograms merge exactly — see obs.MergeProfiles),
// reconstructs the failover timeline from the nodes' event logs, and
// stitches cross-node span trees by remote-parent ID.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"time"

	"repro/internal/obs"
)

// nodeScrape is everything pulled from one node's debug endpoints.
type nodeScrape struct {
	Addr    string          `json:"addr"`
	Health  *nodeHealth     `json:"health,omitempty"`
	Profile *obs.Profile    `json:"profile,omitempty"`
	Events  []obs.Event     `json:"events,omitempty"`
	Trees   []*obs.SpanData `json:"trees,omitempty"`
	Err     string          `json:"error,omitempty"`
}

// nodeHealth mirrors rhodosd's /debug/healthz reply.
type nodeHealth struct {
	Role       string `json:"role"`
	Shard      int    `json:"shard"`
	Shards     int    `json:"shards"`
	MapVersion uint64 `json:"map_version"`
	Addr       string `json:"addr"`
}

// fleetEvent is one node's event annotated with its origin, ordered by
// wall time across the fleet.
type fleetEvent struct {
	Node string `json:"node"`
	Role string `json:"role,omitempty"`
	obs.Event
}

// fleetResult is the machine-readable scraper output (-json).
type fleetResult struct {
	Nodes   []nodeScrape    `json:"nodes"`
	Profile *obs.Profile    `json:"profile,omitempty"`
	Events  []fleetEvent    `json:"events,omitempty"`
	Trees   []*obs.SpanData `json:"trees,omitempty"`
}

// scrapeNode pulls one node's health, profile, events, and span trees.
// Failures populate Err and leave the rest nil — a dead node must not sink
// the fleet view.
func scrapeNode(client *http.Client, addr string) nodeScrape {
	n := nodeScrape{Addr: addr}
	get := func(path string, into any) error {
		resp, err := client.Get("http://" + addr + path + "?format=json")
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s: %s", path, resp.Status)
		}
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		return json.Unmarshal(data, into)
	}
	var h nodeHealth
	if err := get("/debug/healthz", &h); err != nil {
		n.Err = err.Error()
		return n
	}
	n.Health = &h
	var p obs.Profile
	if err := get("/debug/profile", &p); err != nil {
		n.Err = err.Error()
		return n
	}
	n.Profile = &p
	var ev struct {
		Events []obs.Event `json:"events"`
	}
	if err := get("/debug/events", &ev); err != nil {
		n.Err = err.Error()
		return n
	}
	n.Events = ev.Events
	var fl struct {
		Trees []*obs.SpanData `json:"trees"`
	}
	if err := get("/debug/flight", &fl); err != nil {
		n.Err = err.Error()
		return n
	}
	n.Trees = fl.Trees
	return n
}

// runFleet is the -cluster entry point: one scrape pass over the listed
// debug addresses, then the merged report.
func runFleet(addrs []string, jsonOut bool, spans int) int {
	client := &http.Client{Timeout: 5 * time.Second}
	res := fleetResult{}
	var profiles []*obs.Profile
	var trees []*obs.SpanData
	for _, addr := range addrs {
		n := scrapeNode(client, addr)
		res.Nodes = append(res.Nodes, n)
		if n.Err != "" {
			fmt.Fprintf(os.Stderr, "rhodos-trace: scrape %s: %s\n", addr, n.Err)
			continue
		}
		profiles = append(profiles, n.Profile)
		trees = append(trees, n.Trees...)
		role := ""
		if n.Health != nil {
			role = n.Health.Role
		}
		for _, e := range n.Events {
			res.Events = append(res.Events, fleetEvent{Node: addr, Role: role, Event: e})
		}
	}
	if len(profiles) == 0 {
		fmt.Fprintln(os.Stderr, "rhodos-trace: no node answered")
		return 1
	}
	merged, err := obs.MergeProfiles(profiles...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rhodos-trace: %v\n", err)
		return 1
	}
	res.Profile = merged
	sort.SliceStable(res.Events, func(i, j int) bool {
		return res.Events[i].WallUnixNS < res.Events[j].WallUnixNS
	})
	stitched := obs.StitchTraces(trees)
	if spans > 0 && len(stitched) > spans {
		stitched = stitched[len(stitched)-spans:]
	}
	if spans > 0 {
		res.Trees = stitched
	}

	if jsonOut {
		out, err := json.MarshalIndent(&res, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "rhodos-trace: %v\n", err)
			return 1
		}
		fmt.Println(string(out))
		return 0
	}

	fmt.Printf("fleet: %d node(s) scraped\n", len(profiles))
	for _, n := range res.Nodes {
		if n.Err != "" {
			fmt.Printf("  %-22s unreachable: %s\n", n.Addr, n.Err)
			continue
		}
		fmt.Printf("  %-22s shard %d/%d role %-8s map v%d\n",
			n.Addr, n.Health.Shard, n.Health.Shards, n.Health.Role, n.Health.MapVersion)
	}
	fmt.Println("\nmerged fleet profile:")
	res.Profile.Render(os.Stdout)
	if len(res.Events) > 0 {
		fmt.Println("\nfleet event timeline:")
		for _, e := range res.Events {
			fmt.Printf("  %s  %-22s %-12s %s\n",
				time.Unix(0, e.WallUnixNS).Format("15:04:05.000000"), e.Node, e.Name, e.Detail)
		}
		if w, ok := promotionWindow(res.Events); ok && w > 0 {
			fmt.Printf("\npromotion window: %v (last primary event to backup promotion)\n", w)
		} else if ok {
			fmt.Println("\npromotion window: see the promote event's silence reading (no earlier event from another node in the retained log)")
		}
	}
	if spans > 0 {
		fmt.Printf("\ncross-node span trees (%d):\n", len(res.Trees))
		for _, tr := range res.Trees {
			tr.Render(os.Stdout)
		}
	}
	return 0
}

// promotionWindow derives the failover window from a wall-ordered fleet
// timeline: the gap between the promotion event and the latest earlier
// event from any other node (the deposed primary's last sign of life in
// the log). Returns false when the timeline holds no promotion.
func promotionWindow(events []fleetEvent) (time.Duration, bool) {
	for i, e := range events {
		if e.Name != "promote" {
			continue
		}
		for j := i - 1; j >= 0; j-- {
			if events[j].Node != e.Node {
				return time.Duration(e.WallUnixNS - events[j].WallUnixNS), true
			}
		}
		return 0, true
	}
	return 0, false
}
