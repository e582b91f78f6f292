package machine

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestAllocTagsDisjoint hammers the allocator from many goroutines and
// checks every returned range is disjoint and above the legacy tag
// space.
func TestAllocTagsDisjoint(t *testing.T) {
	m, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	const goroutines, per = 16, 50
	var mu sync.Mutex
	seen := make(map[int]bool)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				base := m.AllocTags(3)
				if base < allocTagBase {
					t.Errorf("allocated base %d below allocTagBase %d", base, allocTagBase)
					return
				}
				mu.Lock()
				for k := base; k < base+3; k++ {
					if seen[k] {
						t.Errorf("tag %d handed out twice", k)
					}
					seen[k] = true
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

// TestConcurrentRunsSharedMailbox runs two SPMD executions on one
// machine at once, each on its own allocated tag. The shared per-rank
// inbox must hand every frame to the session that owns its tag, whichever
// session's receiver is waiting when it arrives. Run with -race this
// also exercises the inbox's locking.
func TestConcurrentRunsSharedMailbox(t *testing.T) {
	const p, rounds = 3, 20
	m, err := New(p, WithRecvTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	session := func(tag int, scale float64) error {
		return m.Run(func(pr *Proc) error {
			if pr.Rank == 0 {
				for i := 0; i < rounds; i++ {
					for dst := 0; dst < p; dst++ {
						payload := []float64{scale * float64(i*p+dst)}
						if err := pr.Send(dst, tag, [4]int64{int64(i)}, payload, nil); err != nil {
							return err
						}
					}
				}
			}
			for i := 0; i < rounds; i++ {
				msg, err := pr.RecvFrom(0, tag)
				if err != nil {
					return err
				}
				want := scale * float64(int(msg.Meta[0])*p+pr.Rank)
				if msg.Data[0] != want {
					return fmt.Errorf("tag %d rank %d round %d: got %v, want %v",
						tag, pr.Rank, i, msg.Data[0], want)
				}
			}
			return nil
		})
	}

	tagA, tagB := m.AllocTags(1), m.AllocTags(1)
	errs := make(chan error, 2)
	go func() { errs <- session(tagA, 1) }()
	go func() { errs <- session(tagB, -1) }()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
