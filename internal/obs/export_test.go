package obs

import (
	"context"
	"encoding/json"
	"time"
)

// End completes the span, recording its wall and virtual durations into
// the layer histograms. Ending a root pushes the finished tree into the
// flight recorder. End is idempotent.
func (s *Span) End(err error) { s.end(err, -1) }

// EndCost is End with an exact virtual-time cost. The device layer uses it
// because its modeled seek+transfer cost is known precisely, whereas the
// shared virtual clock folds in concurrently overlapping operations.
func (s *Span) EndCost(cost time.Duration, err error) { s.end(err, cost) }

// Observe records a histogram-only observation of known durations for a
// layer, as a timed bracket of that wall and virtual time would.
func (r *Recorder) Observe(layer Layer, wall, virt time.Duration) {
	if r == nil || layer < 0 || layer >= numLayers {
		return
	}
	r.wall[layer].Record(wall)
	r.virt[layer].Record(virt)
}

// FindTrace returns every top-level tree in trees whose TraceID matches.
func FindTrace(trees []*SpanData, traceID uint64) []*SpanData {
	var out []*SpanData
	for _, t := range trees {
		if t != nil && t.TraceID == traceID {
			out = append(out, t)
		}
	}
	return out
}

// WithSpan returns ctx with sp as the active span.
func WithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, sp)
}

// Sum returns the total observed nanoseconds.
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.sum.Load())
}

// JSON marshals the profile with indentation.
func (p *Profile) JSON() ([]byte, error) {
	return json.MarshalIndent(p, "", "  ")
}
