package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// LayerStats is one layer's latency summary inside a Profile. All times
// are nanoseconds so the JSON form is unit-unambiguous. Count and the Virt
// columns cover every operation. The Wall columns cover every root (a
// layer's StartRoot, StartOr and StartRemoteOp brackets) but only the timed
// share of interior brackets — one in the sample rate, plus those in traced
// trees — so for an interior layer they are an estimate from Wall.Count ops,
// and on a layer with both (txn's roots and its group-sync) they mix every
// root with a sample of the interior ops, under-weighting the latter.
type LayerStats struct {
	Layer      string `json:"layer"`
	Count      int64  `json:"count"`
	WallP50NS  int64  `json:"wall_p50_ns"`
	WallP95NS  int64  `json:"wall_p95_ns"`
	WallP99NS  int64  `json:"wall_p99_ns"`
	WallMaxNS  int64  `json:"wall_max_ns"`
	WallMeanNS int64  `json:"wall_mean_ns"`
	VirtP50NS  int64  `json:"virt_p50_ns"`
	VirtP99NS  int64  `json:"virt_p99_ns"`
	// Self time — a span's wall time minus what its children cover — is
	// known only for ops that were traced, so it is an estimate from the
	// sampled trees (SelfCount of them).
	SelfCount  int64 `json:"self_count"`
	SelfMeanNS int64 `json:"self_mean_ns"`
	SelfP99NS  int64 `json:"self_p99_ns"`
	// Wall, Virt and Self carry the raw histogram buckets, so profiles scraped
	// from different processes can be merged (MergeProfiles) and their
	// fleet-wide quantiles recomputed rather than averaged.
	Wall *HistData `json:"wall_hist,omitempty"`
	Virt *HistData `json:"virt_hist,omitempty"`
	Self *HistData `json:"self_hist,omitempty"`
}

// fill summarizes one layer from its three histogram snapshots — the one
// place the summary columns are derived, for a live recorder and a merged
// fleet alike.
func (ls *LayerStats) fill() {
	w, v, s := ls.Wall, ls.Virt, ls.Self
	if v != nil {
		ls.Count = v.Count // every op records its virtual time; not every op is wall-timed
	}
	if w != nil {
		ls.WallMaxNS = w.MaxNS
	}
	ls.WallP50NS = int64(w.Quantile(0.50))
	ls.WallP95NS = int64(w.Quantile(0.95))
	ls.WallP99NS = int64(w.Quantile(0.99))
	ls.WallMeanNS = int64(w.Mean())
	ls.VirtP50NS = int64(v.Quantile(0.50))
	ls.VirtP99NS = int64(v.Quantile(0.99))
	if s != nil {
		ls.SelfCount = s.Count
	}
	ls.SelfMeanNS = int64(s.Mean())
	ls.SelfP99NS = int64(s.Quantile(0.99))
}

// ValueStats summarizes one named unit-less value histogram (for example
// the group-commit batch-size distribution).
type ValueStats struct {
	Name  string    `json:"name"`
	Count int64     `json:"count"`
	Mean  float64   `json:"mean"`
	P50   int64     `json:"p50"`
	P95   int64     `json:"p95"`
	Max   int64     `json:"max"`
	Hist  *HistData `json:"hist,omitempty"`
}

// ProfileVersion identifies the histogram bucket scheme a Profile's HistData
// indexes into: 2 is log-linear (hist.go); profiles from before it carry no
// version and power-of-two bucket indexes, and MergeProfiles refuses to fold
// the two together.
const ProfileVersion = 2

// Profile is the per-layer latency breakdown plus gauge snapshot — the
// export form served by rhodosd's /debug/profile, embedded in
// rhodos-bench's JSON results, and printed by rhodos-trace -profile.
type Profile struct {
	Version int              `json:"version"`
	Layers  []LayerStats     `json:"layers"`
	Values  []ValueStats     `json:"values,omitempty"`
	Gauges  map[string]int64 `json:"gauges,omitempty"`
	// Trees counts the span trees ever recorded, retained or overwritten;
	// SlowOps likewise the slow-op records. SampleRate is the recorder's
	// head-sampling rate (one root in n; 0 in a merged profile whose
	// members disagree).
	Trees      int `json:"trees"`
	SlowOps    int `json:"slow_ops"`
	SampleRate int `json:"sample_rate"`
	Events     int `json:"events,omitempty"`
	FaultDumps int `json:"fault_dumps,omitempty"`
}

// Profile summarizes the recorder's histograms and gauges. Layers with no
// observations are included with zero rows so the table shape is stable.
func (r *Recorder) Profile() *Profile {
	if r == nil {
		return nil
	}
	p := &Profile{
		Version:    ProfileVersion,
		Gauges:     r.Gauges(),
		Trees:      r.flight.total(),
		SlowOps:    r.slow.total(),
		SampleRate: r.SampleRate(),
		Events:     r.EventTotal(),
	}
	r.dmu.Lock()
	p.FaultDumps = len(r.dumps)
	r.dmu.Unlock()
	for l := Layer(0); l < numLayers; l++ {
		ls := LayerStats{Layer: l.String(), Wall: r.wall[l].Data(), Virt: r.virt[l].Data(), Self: r.self[l].Data()}
		ls.fill()
		p.Layers = append(p.Layers, ls)
	}
	for name, h := range r.ValueHists() {
		if h.Count() == 0 {
			continue // resolved by its recorder's owner, never recorded into
		}
		p.Values = append(p.Values, ValueStats{
			Name:  name,
			Count: h.Count(),
			Mean:  float64(h.Mean()),
			P50:   int64(h.Quantile(0.50)),
			P95:   int64(h.Quantile(0.95)),
			Max:   int64(h.Max()),
			Hist:  h.Data(),
		})
	}
	sort.Slice(p.Values, func(i, j int) bool { return p.Values[i].Name < p.Values[j].Name })
	return p
}

// fmtNS renders nanoseconds with an adaptive unit.
func fmtNS(ns int64) string {
	d := time.Duration(ns)
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	case d >= time.Microsecond:
		return fmt.Sprintf("%.1fµs", float64(d)/float64(time.Microsecond))
	default:
		return fmt.Sprintf("%dns", ns)
	}
}

// fmtSelf renders a self-time cell, blank for a layer no traced tree reached.
func fmtSelf(count, ns int64) string {
	if count == 0 {
		return "-"
	}
	return fmtNS(ns)
}

// Render writes the profile as an aligned text table.
func (p *Profile) Render(w io.Writer) {
	if p == nil {
		return
	}
	cols := []string{"layer", "count", "timed", "wall p50", "wall p95", "wall p99", "wall max", "wall mean", "virt p50", "virt p99", "traced*", "self mean*", "self p99*"}
	rows := make([][]string, 0, len(p.Layers))
	for _, ls := range p.Layers {
		if ls.Count == 0 {
			continue
		}
		timed := int64(0)
		if ls.Wall != nil {
			timed = ls.Wall.Count
		}
		rows = append(rows, []string{
			ls.Layer,
			fmt.Sprint(ls.Count),
			fmt.Sprint(timed),
			fmtNS(ls.WallP50NS),
			fmtNS(ls.WallP95NS),
			fmtNS(ls.WallP99NS),
			fmtNS(ls.WallMaxNS),
			fmtNS(ls.WallMeanNS),
			fmtNS(ls.VirtP50NS),
			fmtNS(ls.VirtP99NS),
			fmt.Sprint(ls.SelfCount),
			fmtSelf(ls.SelfCount, ls.SelfMeanNS),
			fmtSelf(ls.SelfCount, ls.SelfP99NS),
		})
	}
	fmt.Fprintln(w, "per-layer latency profile:")
	if len(rows) == 0 {
		fmt.Fprintln(w, "  (no observations)")
		return
	}
	widths := make([]int, len(cols))
	for i, c := range cols {
		widths[i] = len(c)
	}
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, "  "+strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(cols)
	sep := make([]string, len(cols))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range rows {
		line(row)
	}
	rate := "head sampling off, or recorders whose rates differ"
	if p.SampleRate > 0 {
		rate = fmt.Sprintf("sample rate 1 in %d", p.SampleRate)
	}
	fmt.Fprintln(w, "  count and virt cover every op; wall covers the timed ones: every root, and one interior bracket in the sample rate plus those in traced trees")
	fmt.Fprintf(w, "  * self = wall − children, over the layer's spans in the %d span tree(s) traced (%s; %d slow or failed op(s))\n",
		p.Trees, rate, p.SlowOps)
	if len(p.Values) > 0 {
		fmt.Fprintln(w, "value histograms:")
		for _, v := range p.Values {
			fmt.Fprintf(w, "  %s: count=%d mean=%.1f p50=%d p95=%d max=%d\n",
				v.Name, v.Count, v.Mean, v.P50, v.P95, v.Max)
		}
	}
	if len(p.Gauges) > 0 {
		names := make([]string, 0, len(p.Gauges))
		for n := range p.Gauges {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintln(w, "gauges:")
		for _, n := range names {
			fmt.Fprintf(w, "  %s = %d\n", n, p.Gauges[n])
		}
	}
	if p.FaultDumps > 0 {
		fmt.Fprintf(w, "fault dumps captured: %d\n", p.FaultDumps)
	}
}

// String renders the profile to a string.
func (p *Profile) String() string {
	var b strings.Builder
	p.Render(&b)
	return b.String()
}

// Render writes the span tree as indented text, one span per line.
func (d *SpanData) Render(w io.Writer) { d.render(w, 0) }

func (d *SpanData) render(w io.Writer, depth int) {
	if d == nil {
		return
	}
	var b strings.Builder
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(d.Layer)
	b.WriteByte(' ')
	b.WriteString(d.Op)
	if d.File != 0 {
		fmt.Fprintf(&b, " file=%d", d.File)
	}
	if d.Txn != 0 {
		fmt.Fprintf(&b, " txn=%d", d.Txn)
	}
	if d.Bytes != 0 {
		fmt.Fprintf(&b, " bytes=%d", d.Bytes)
	}
	if d.Count != 0 {
		fmt.Fprintf(&b, " count=%d", d.Count)
	}
	if d.InFlight {
		b.WriteString(" IN-FLIGHT")
	} else {
		fmt.Fprintf(&b, " wall=%s virt=%s", fmtNS(d.WallNS), fmtNS(d.VirtNS))
	}
	if d.Err != "" {
		fmt.Fprintf(&b, " err=%q", d.Err)
	}
	fmt.Fprintln(w, b.String())
	for _, c := range d.Children {
		c.render(w, depth+1)
	}
}

// String renders the span tree to a string.
func (d *SpanData) String() string {
	var b strings.Builder
	d.Render(&b)
	return b.String()
}
