package obs

import (
	"fmt"
	"sort"
)

// MergeProfiles combines profiles snapshotted from different recorders —
// typically one per shard process, scraped over /debug/profile — into one
// fleet-wide profile. Layer and value histograms are merged bucket-by-
// bucket via their exported HistData and the quantiles recomputed from the
// merged distribution (never averaged); gauges, tree and event counts sum.
// A profile written under another bucket scheme (ProfileVersion) is refused:
// its bucket indexes mean different values.
func MergeProfiles(ps ...*Profile) (*Profile, error) {
	out := &Profile{Version: ProfileVersion, Gauges: make(map[string]int64)}
	layers := make(map[string]*LayerStats)
	var order []string
	values := make(map[string]*HistData)
	first := true
	for _, p := range ps {
		if p == nil {
			continue
		}
		if p.Version != ProfileVersion {
			return nil, fmt.Errorf("obs: cannot merge a version %d profile into version %d: the histogram buckets differ", p.Version, ProfileVersion)
		}
		if first {
			out.SampleRate, first = p.SampleRate, false
		} else if out.SampleRate != p.SampleRate {
			out.SampleRate = 0
		}
		out.Trees += p.Trees
		out.SlowOps += p.SlowOps
		out.Events += p.Events
		out.FaultDumps += p.FaultDumps
		for k, v := range p.Gauges {
			out.Gauges[k] += v
		}
		for _, ls := range p.Layers {
			m := layers[ls.Layer]
			if m == nil {
				m = &LayerStats{Layer: ls.Layer, Wall: &HistData{}, Virt: &HistData{}, Self: &HistData{}}
				layers[ls.Layer] = m
				order = append(order, ls.Layer)
			}
			m.Wall.Merge(ls.Wall)
			m.Virt.Merge(ls.Virt)
			m.Self.Merge(ls.Self)
		}
		for _, vs := range p.Values {
			h := values[vs.Name]
			if h == nil {
				h = &HistData{}
				values[vs.Name] = h
			}
			h.Merge(vs.Hist)
		}
	}
	for _, name := range order {
		m := layers[name]
		m.fill()
		out.Layers = append(out.Layers, *m)
	}
	for name, h := range values {
		out.Values = append(out.Values, ValueStats{
			Name:  name,
			Count: h.Count,
			Mean:  float64(h.Mean()),
			P50:   int64(h.Quantile(0.50)),
			P95:   int64(h.Quantile(0.95)),
			Max:   h.MaxNS,
			Hist:  h,
		})
	}
	sort.Slice(out.Values, func(i, j int) bool { return out.Values[i].Name < out.Values[j].Name })
	if len(out.Gauges) == 0 {
		out.Gauges = nil
	}
	return out, nil
}

// StitchTraces joins span trees captured by different recorders (typically
// different processes) into cross-node trees: a continuation root — one
// carrying a remote ParentSpanID — is reattached as a child of the span
// with that ID wherever it was captured. Roots whose remote parent is not
// present stay top-level. Trees are modified in place; the returned slice
// holds the surviving top-level roots.
func StitchTraces(trees []*SpanData) []*SpanData {
	byID := make(map[uint64]*SpanData)
	var walk func(d *SpanData)
	walk = func(d *SpanData) {
		if d == nil {
			return
		}
		if d.SpanID != 0 {
			byID[d.SpanID] = d
		}
		for _, c := range d.Children {
			walk(c)
		}
	}
	for _, t := range trees {
		walk(t)
	}
	out := make([]*SpanData, 0, len(trees))
	for _, t := range trees {
		if t == nil {
			continue
		}
		if t.ParentSpanID != 0 {
			if p := byID[t.ParentSpanID]; p != nil && p != t {
				p.Children = append(p.Children, t)
				continue
			}
		}
		out = append(out, t)
	}
	return out
}
