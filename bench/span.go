package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"
)

// Layers, outermost first. A span is named after what it encloses: the
// benchmark records it around the call into that layer, so the layer's self
// time is the span minus the spans of the layers below it.
const (
	layerAgent          = iota // worker → file agent: the op as the client sees it
	layerCCacheClient          // agent → the file service handed to it, when that is the client cache
	layerRouterRPC             // → cluster.Router: router, mux, loopback, server worker dispatch
	layerClusterService        // the rpc handler func → cluster.Service
	layerCCacheServer          // cluster InnerCtx → ccache.Server
	layerRPCFS                 // ccache server Inner → rpcfs and everything below it
	numLayers
)

var layerNames = [numLayers]string{"agent", "ccache.client", "router_rpc", "cluster.service", "ccache.server", "rpcfs"}

// Kinds say which operation a span belongs to.
const (
	kindOther = iota
	kindRead
	kindWrite
	kindCreate
	kindOpen
	kindClose
	kindDelete
	kindResolve
	kindUnregister
	numKinds
)

var kindNames = [numKinds]string{"other", "read", "write", "create", "open", "close", "delete", "resolve", "unregister"}

// span is one timed call at a layer boundary. Times are nanoseconds since
// the tracer's base; client is the bench client the work was done for.
type span struct {
	start, end          int64
	layer, kind, client uint8
}

// tracer owns the span ring. Wrappers check on before doing anything, so
// the untraced window pays one atomic load per boundary.
type tracer struct {
	on   atomic.Bool
	base time.Time
	next atomic.Uint64
	buf  []span // length is a power of two
}

// ringSpans holds a second or more of the busiest workload's spans.
const ringSpans = 1 << 21

func newTracer(capacity int) *tracer {
	return &tracer{base: time.Now(), buf: make([]span, capacity)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) add(layer, kind, client uint8, start, end int64) {
	i := t.next.Add(1) - 1
	t.buf[i&uint64(len(t.buf)-1)] = span{start, end, layer, kind, client}
}

// snapshot returns the recorded spans oldest first, and the share of all
// recorded spans they are. When the ring wrapped, each client's leading
// spans up to its first agent span are dropped: spans are recorded as they
// end, children before parents, so those may belong to an op whose earlier
// children were overwritten.
func (t *tracer) snapshot() (spans []span, share float64) {
	n := t.next.Load()
	size := uint64(len(t.buf))
	if n <= size {
		return append([]span(nil), t.buf[:n]...), 1
	}
	out := make([]span, 0, size)
	complete := map[uint8]bool{}
	for i := n - size; i < n; i++ {
		s := t.buf[i&(size-1)]
		if complete[s.client] {
			out = append(out, s)
		} else if s.layer == layerAgent {
			complete[s.client] = true
		}
	}
	return out, float64(len(out)) / float64(n)
}

func (t *tracer) reset() { t.next.Store(0) }

// layerStat sums the spans of one (layer, kind).
type layerStat struct {
	count  uint64
	inclNS int64
	selfNS int64
}

type traceStats [numLayers][numKinds]layerStat

// analyze gives every span its parent — the innermost span of the same
// client whose interval encloses it; each client has one op in flight — and
// charges each span's time to its own layer less what its children cover.
func analyze(spans []span) *traceStats {
	st := new(traceStats)
	byClient := map[uint8][]span{}
	for _, s := range spans {
		byClient[s.client] = append(byClient[s.client], s)
	}
	for _, list := range byClient {
		sort.Slice(list, func(i, j int) bool {
			a, b := list[i], list[j]
			if a.start != b.start {
				return a.start < b.start
			}
			if a.end != b.end {
				return a.end > b.end
			}
			return a.layer < b.layer
		})
		var stack []*span
		for i := range list {
			s := &list[i]
			for len(stack) > 0 && !(stack[len(stack)-1].start <= s.start && s.end <= stack[len(stack)-1].end) {
				stack = stack[:len(stack)-1]
			}
			d := s.end - s.start
			ls := &st[s.layer][s.kind]
			ls.count++
			ls.inclNS += d
			ls.selfNS += d
			if len(stack) > 0 {
				p := stack[len(stack)-1]
				st[p.layer][p.kind].selfNS -= d
			}
			stack = append(stack, s)
		}
	}
	return st
}

// layerTotal sums one layer over all kinds.
func (st *traceStats) layerTotal(layer int) layerStat {
	var t layerStat
	for k := range st[layer] {
		t.count += st[layer][k].count
		t.inclNS += st[layer][k].inclNS
		t.selfNS += st[layer][k].selfNS
	}
	return t
}

// traceFileSpans caps the trace file; the ring's newest spans are kept.
const traceFileSpans = 100_000

// writeTrace writes the newest spans to dir/<workload>.trace.json.
func writeTrace(dir, workload string, spans []span) error {
	if len(spans) > traceFileSpans {
		spans = spans[len(spans)-traceFileSpans:]
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, workload+".trace.json"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"workload\":%q,\"spans\":[", workload)
	for i, s := range spans {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "\n{\"layer\":%q,\"kind\":%q,\"client\":%d,\"start_ns\":%d,\"end_ns\":%d}",
			layerNames[s.layer], kindNames[s.kind], s.client, s.start, s.end)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
