package core

import (
	"math"
	"testing"

	"repro/internal/fileservice"
	"repro/internal/fit"
	"repro/internal/obs"
)

// TestSelfTimeSumsToRoot drives traced reads down the real chain — agent →
// fileservice → diskservice → device — and checks the profile's self-time
// columns: what each layer spent outside its children, added over the
// layers, is what the roots spent end to end.
func TestSelfTimeSumsToRoot(t *testing.T) {
	rec := obs.New(obs.WithSampleRate(1))
	c := newCluster(t, func(cfg *Config) { cfg.Obs, cfg.DisableClientCache = rec, true })
	m, err := c.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	p, fa := m.NewProcess(), m.FileAgent()
	const blocks = 64
	fd, err := fa.Create(p, "/self/time", fit.Attributes{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fa.PWrite(p, fd, 0, make([]byte, blocks*fileservice.BlockSize)); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	c.InvalidateCaches()
	before := rec.Profile()
	for b := 0; b < blocks; b++ {
		// Strided, so the reads are not one sequential stream.
		off := int64(b*37%blocks) * fileservice.BlockSize
		if _, err := fa.PRead(p, fd, off, fileservice.BlockSize); err != nil {
			t.Fatal(err)
		}
	}
	after := rec.Profile()

	sum := func(h *obs.HistData) int64 {
		if h == nil {
			return 0
		}
		return h.SumNS
	}
	var selfSum, rootSum, roots int64
	for i, ls := range after.Layers {
		was := before.Layers[i]
		selfSum += sum(ls.Self) - sum(was.Self)
		switch ls.Layer {
		case "agent":
			rootSum, roots = sum(ls.Wall)-sum(was.Wall), ls.Count-was.Count
			fallthrough
		case "fileservice", "diskservice", "device":
			if ls.SelfCount == was.SelfCount || ls.SelfMeanNS <= 0 {
				t.Errorf("layer %s: no self time recorded by the traced reads (%+v)", ls.Layer, ls)
			}
		}
	}
	if roots != blocks {
		t.Fatalf("%d agent roots for %d reads", roots, blocks)
	}
	rootMean, selfMean := float64(rootSum)/float64(roots), float64(selfSum)/float64(roots)
	if math.Abs(selfMean-rootMean) > 0.10*rootMean {
		t.Fatalf("per-layer self times sum to %.0f ns per read, the root's mean is %.0f ns", selfMean, rootMean)
	}
	t.Logf("per read: root mean %.0f ns, layers' self times sum to %.0f ns", rootMean, selfMean)
}
