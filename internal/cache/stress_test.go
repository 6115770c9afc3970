package cache

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
)

// stressStore is the layer below: a concurrency-safe backing map that checks
// every buffer written back is well-formed for its key.
type stressStore struct {
	mu   sync.Mutex
	data map[int][]byte
	errs []string
}

func (s *stressStore) writeback(key int, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if k, _ := decodeStress(data); k != key {
		s.errs = append(s.errs, fmt.Sprintf("writeback of key %d carries key %d's buffer", key, k))
	}
	s.data[key] = append([]byte(nil), data...)
	return nil
}

func encodeStress(key, version int) []byte {
	buf := make([]byte, 16)
	binary.LittleEndian.PutUint64(buf[0:], uint64(key))
	binary.LittleEndian.PutUint64(buf[8:], uint64(version))
	return buf
}

func decodeStress(data []byte) (key, version int) {
	if len(data) != 16 {
		return -1, -1
	}
	return int(binary.LittleEndian.Uint64(data[0:])), int(binary.LittleEndian.Uint64(data[8:]))
}

// TestStressConcurrent hammers one cache per write mode from many
// goroutines: each key has exactly one writer, while readers, flushers and
// invalidators race freely; under write-through each writer flushes every
// Put it makes, as the file service does for a transaction file. Run under
// -race; the data checks catch cross-key mixups and lost writebacks.
func TestStressConcurrent(t *testing.T) {
	for _, mode := range []string{"delayed-write", "write-through"} {
		through := mode == "write-through"
		t.Run(mode, func(t *testing.T) {
			t.Parallel()
			store := &stressStore{data: make(map[int][]byte)}
			c, err := New(Config[int]{
				Capacity:  32, // far fewer slots than keys, so eviction races too
				Writeback: store.writeback,
			})
			if err != nil {
				t.Fatal(err)
			}

			const (
				writers       = 8
				keysPerWriter = 16
				iters         = 300
			)
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					base := w * keysPerWriter
					for i := 0; i < iters; i++ {
						key := base + i%keysPerWriter
						version := i/keysPerWriter + 1
						if err := c.Put(key, encodeStress(key, version), true); err != nil {
							t.Errorf("Put(%d): %v", key, err)
							return
						}
						if through {
							if err := c.FlushKey(key); err != nil {
								t.Errorf("write-through FlushKey(%d): %v", key, err)
								return
							}
						}
						switch i % 7 {
						case 1:
							if data, ok := c.Get(key); ok {
								if k, v := decodeStress(data); k != key || v > version {
									t.Errorf("Get(%d) = key %d version %d (wrote %d)", key, k, v, version)
									return
								}
							}
						case 3:
							if err := c.FlushKey(key); err != nil {
								t.Errorf("FlushKey(%d): %v", key, err)
								return
							}
						case 5:
							c.Invalidate(key)
						}
					}
				}(w)
			}
			// Racing whole-cache operations.
			stop := make(chan struct{})
			var bg sync.WaitGroup
			bg.Add(2)
			go func() {
				defer bg.Done()
				for {
					select {
					case <-stop:
						return
					default:
						if err := c.Flush(); err != nil {
							t.Errorf("Flush: %v", err)
							return
						}
					}
				}
			}()
			go func() {
				defer bg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
						if data, ok := c.Get(i % (writers * keysPerWriter)); ok {
							if k, _ := decodeStress(data); k != i%(writers*keysPerWriter) {
								t.Errorf("reader Get(%d) returned key %d's buffer", i%(writers*keysPerWriter), k)
								return
							}
						}
					}
				}
			}()
			wg.Wait()
			close(stop)
			bg.Wait()

			if err := c.Flush(); err != nil {
				t.Fatalf("final Flush: %v", err)
			}
			if n := c.DirtyCount(); n != 0 {
				t.Fatalf("DirtyCount after final Flush = %d, want 0", n)
			}
			store.mu.Lock()
			defer store.mu.Unlock()
			for _, msg := range store.errs {
				t.Error(msg)
			}
			for key, data := range store.data {
				if k, _ := decodeStress(data); k != key {
					t.Errorf("store[%d] holds key %d's buffer", key, k)
				}
			}
		})
	}
}
