package txn

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/fit"
)

// TestEndedIDsNeverReachReusedState runs committers side by side, each on
// its own record-locked file, so finished transactions' states and group
// commit's batches are reused while other transactions run. Between its
// writes and its End, every transaction calls PRead, PWrite, End and Abort
// with IDs that already ended — its own goroutine's or another's — and each
// call must get ErrNoTxn. Some transactions abort, some write through a
// subtransaction. Every transaction reads back, for update, the record
// generation its goroutine last committed, and the files end holding exactly
// the committed generations.
func TestEndedIDsNeverReachReusedState(t *testing.T) {
	const (
		workers = 3
		rounds  = 150
		recs    = 8
		recSize = 32
	)
	r := newRig(t)
	fids := r.seedFiles(workers, recs*recSize, fit.LockRecord)

	var mu sync.Mutex
	var ended []TxnID
	endedID := func(rng *rand.Rand) (TxnID, bool) {
		mu.Lock()
		defer mu.Unlock()
		if len(ended) == 0 {
			return 0, false
		}
		if rng.Intn(2) == 0 {
			return ended[len(ended)-1], true
		}
		return ended[rng.Intn(len(ended))], true
	}

	want := make([][][]byte, workers) // per worker, per record: last committed image
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		want[w] = make([][]byte, recs)
		for i := range want[w] {
			want[w][i] = bytes.Repeat([]byte("o"), recSize) // seedFiles' bytes
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = func() error {
				rng := rand.New(rand.NewSource(int64(w + 1)))
				fid := fids[w]
				for i := 0; i < rounds; i++ {
					a, c := i%recs, (i+3)%recs
					img := []byte(fmt.Sprintf("%-*s", recSize, fmt.Sprintf("w%d-gen%d", w, i)))
					id, err := r.svc.Begin(1)
					if err != nil {
						return err
					}
					if err := r.svc.Open(id, fid, fit.LockRecord); err != nil {
						return err
					}
					got, err := r.svc.PRead(id, fid, int64(a*recSize), recSize, true)
					if err != nil {
						return err
					}
					if !bytes.Equal(got, want[w][a]) {
						return fmt.Errorf("round %d: txn %d reads record %d as %q, committed %q", i, id, a, got, want[w][a])
					}
					writer := id
					if i%7 == 3 {
						if writer, err = r.svc.BeginChild(id); err != nil {
							return err
						}
					}
					for _, rec := range []int{a, c} {
						if _, err := r.svc.PWrite(writer, fid, int64(rec*recSize), img); err != nil {
							return err
						}
					}
					if writer != id {
						if err := r.svc.End(writer); err != nil {
							return err
						}
					}
					if stale, ok := endedID(rng); ok {
						if _, err := r.svc.PRead(stale, fid, 0, recSize, true); !errors.Is(err, ErrNoTxn) {
							return fmt.Errorf("PRead with ended txn %d: %v, want ErrNoTxn", stale, err)
						}
						if _, err := r.svc.PWrite(stale, fid, 0, img); !errors.Is(err, ErrNoTxn) {
							return fmt.Errorf("PWrite with ended txn %d: %v, want ErrNoTxn", stale, err)
						}
						if err := r.svc.End(stale); !errors.Is(err, ErrNoTxn) {
							return fmt.Errorf("End with ended txn %d: %v, want ErrNoTxn", stale, err)
						}
						if err := r.svc.Abort(stale); !errors.Is(err, ErrNoTxn) {
							return fmt.Errorf("Abort with ended txn %d: %v, want ErrNoTxn", stale, err)
						}
					}
					if i%5 == 4 {
						err = r.svc.Abort(id)
					} else if err = r.svc.End(id); err == nil {
						want[w][a], want[w][c] = img, img
					}
					if err != nil {
						return err
					}
					mu.Lock()
					ended = append(ended, id)
					mu.Unlock()
				}
				return nil
			}()
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	for w, fid := range fids {
		got, err := r.fs.ReadAt(fid, 0, recs*recSize)
		if err != nil {
			t.Fatal(err)
		}
		if exp := bytes.Join(want[w], nil); !bytes.Equal(got, exp) {
			t.Fatalf("worker %d's file reads %q, committed %q", w, got, exp)
		}
	}
}

// TestBatchReusedOnlyOnceEveryMemberRead pins the rule that keeps a reused
// batch from leaking its result: a batch goes back for reuse only after
// every member read its result, so a member that has not read yet never
// finds the batch reopened under the next batch's members.
func TestBatchReusedOnlyOnceEveryMemberRead(t *testing.T) {
	r := newRig(t)
	g := r.svc.gc
	g.mu.Lock()
	defer g.mu.Unlock()
	b := g.newBatch()
	b.size, b.unread = 3, 3 // a leader and two followers
	settle(b, errors.New("the batch's result"))
	for read := 1; read <= 3; read++ {
		g.release(b)
		next := g.newBatch()
		if reused := next == b; reused != (read == 3) {
			t.Fatalf("after %d of 3 members read, newBatch reused the batch: %v", read, reused)
		}
		if next == b && (next.closed || next.err != nil || next.size != 0 || next.unread != 0) {
			t.Fatalf("reused batch not emptied: %+v", next)
		}
	}
}
