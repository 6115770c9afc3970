// Package workload provides the deterministic workload generators the
// experiment harness drives the facility with: file-size distributions,
// read/write operation mixes, and transaction mixes with tunable contention
// and deadlock-prone access patterns.
//
// All generators are seeded; the same seed reproduces the same workload.
package workload

import (
	"math"
	"math/rand"
)

// SizeDist draws file sizes in bytes.
type SizeDist interface {
	Next(rng *rand.Rand) int
}

// Fixed always returns N bytes.
type Fixed struct{ N int }

// Next implements SizeDist.
func (f Fixed) Next(*rand.Rand) int { return f.N }

// Exponential draws sizes with the given mean (clamped to [1, Cap]); file
// sizes in 1990s traces are strongly skewed toward small files.
type Exponential struct {
	Mean int
	Cap  int
}

// Next implements SizeDist.
func (e Exponential) Next(rng *rand.Rand) int {
	n := int(rng.ExpFloat64() * float64(e.Mean))
	if n < 1 {
		n = 1
	}
	if e.Cap > 0 && n > e.Cap {
		n = e.Cap
	}
	return n
}

// OfficeFiles approximates the era's measured file-size profile: ~80% of
// files under 10 KB, a long tail up to ~1 MB.
func OfficeFiles() SizeDist { return officeDist{} }

type officeDist struct{}

func (officeDist) Next(rng *rand.Rand) int {
	switch p := rng.Float64(); {
	case p < 0.5:
		return 1 + rng.Intn(4*1024) // half the files under 4 KB
	case p < 0.8:
		return 4*1024 + rng.Intn(12*1024)
	case p < 0.95:
		return 16*1024 + rng.Intn(112*1024)
	default:
		return 128*1024 + rng.Intn(896*1024)
	}
}

// Access is one generated file operation.
type Access struct {
	// Read is true for a read, false for a write.
	Read bool
	// Offset and Length select the byte range.
	Offset int64
	Length int
}

// AccessGen generates operations over a file of the given size.
type AccessGen struct {
	// FileSize bounds the offsets.
	FileSize int64
	// ReadFrac is the fraction of reads (e.g. 0.8 for the classic 80/20).
	ReadFrac float64
	// OpSize is the bytes per operation.
	OpSize int
	// Sequential makes offsets advance linearly; otherwise uniform random.
	Sequential bool

	cursor int64
}

// Next draws the next access.
func (g *AccessGen) Next(rng *rand.Rand) Access {
	a := Access{
		Read:   rng.Float64() < g.ReadFrac,
		Length: g.OpSize,
	}
	if g.Sequential {
		if g.cursor+int64(g.OpSize) > g.FileSize {
			g.cursor = 0
		}
		a.Offset = g.cursor
		g.cursor += int64(g.OpSize)
	} else {
		span := g.FileSize - int64(g.OpSize)
		if span <= 0 {
			a.Offset = 0
		} else {
			a.Offset = rng.Int63n(span)
		}
	}
	return a
}

// ItemChooser selects data items under a contention model.
type ItemChooser struct {
	// Items is the number of distinct items.
	Items int
	// Theta skews selection: 0 is uniform, higher values concentrate
	// accesses on few hot items (Zipf-like, E7's contention knob).
	Theta float64
}

// Choose draws an item index in [0, Items).
func (c ItemChooser) Choose(rng *rand.Rand) int {
	if c.Items <= 1 {
		return 0
	}
	if c.Theta <= 0 {
		return rng.Intn(c.Items)
	}
	// Inverse-CDF Zipf approximation: rank ~ u^(1/(1-theta)) scaled.
	u := rng.Float64()
	r := math.Pow(u, 1.0/(1.0-math.Min(c.Theta, 0.99)))
	idx := int(r * float64(c.Items))
	if idx >= c.Items {
		idx = c.Items - 1
	}
	return idx
}

// TxnSpec describes a transaction workload (experiment E7).
type TxnSpec struct {
	// OpsPerTxn is the number of read/write operations per transaction.
	OpsPerTxn int
	// UpdateBytes is the size of each update.
	UpdateBytes int
	// ReadFrac is the fraction of reads within a transaction.
	ReadFrac float64
	// Items and Theta configure the contention model.
	Items int
	Theta float64
	// ItemBytes is the byte footprint of one item in the shared file.
	ItemBytes int
}

// TxnOp is one operation within a generated transaction.
type TxnOp struct {
	Read   bool
	Item   int
	Offset int64
	Length int
}

// NextTxn draws one transaction's operation list.
func (s TxnSpec) NextTxn(rng *rand.Rand) []TxnOp {
	chooser := ItemChooser{Items: s.Items, Theta: s.Theta}
	ops := make([]TxnOp, 0, s.OpsPerTxn)
	for i := 0; i < s.OpsPerTxn; i++ {
		item := chooser.Choose(rng)
		length := s.UpdateBytes
		if length > s.ItemBytes {
			length = s.ItemBytes
		}
		ops = append(ops, TxnOp{
			Read:   rng.Float64() < s.ReadFrac,
			Item:   item,
			Offset: int64(item * s.ItemBytes),
			Length: length,
		})
	}
	return ops
}

// DeadlockPair returns the two opposite-order lock sequences of the classic
// two-item deadlock (experiment E9): transaction A touches item x then y,
// transaction B touches y then x.
func DeadlockPair(x, y int) (a, b []int) {
	return []int{x, y}, []int{y, x}
}

// FileSet generates a population of file sizes.
func FileSet(dist SizeDist, count int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int, count)
	for i := range out {
		out[i] = dist.Next(rng)
	}
	return out
}
