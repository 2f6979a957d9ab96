package serve

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
)

// TestSnapshotSwapUnderConcurrentReaders is the epoch-swap stress test,
// meant to run under -race (make race runs the whole tree with it): N
// reader goroutines hammer route/topology/health queries while the writer
// applies churn batches. Each reader asserts it always observes a
// consistent single-epoch snapshot — the epoch tags of the UDG and
// backbone snapshots match the epoch's sequence number, sequence numbers
// never go backwards, and every returned path is a live walk of the pinned
// snapshot — while the race detector checks the copy-on-write publication
// shares nothing mutable with the writer. One more reader polls /healthz
// and asserts every response describes one epoch: its alive and dead
// counts partition the node slots.
func TestSnapshotSwapUnderConcurrentReaders(t *testing.T) {
	s, inst := newServer(t, 71, 300)
	sched := NewScheduler(72, inst.Points, 200, inst.Radius)
	n := len(inst.Points)

	const readers = 8
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var queries atomic.Int64
	errs := make(chan string, readers)

	fail := func(msg string) {
		select {
		case errs <- msg:
		default:
		}
	}

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + r)))
			var last uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				ep := s.Current()
				if ep.Seq < last {
					fail("epoch sequence went backwards")
					return
				}
				last = ep.Seq
				if ep.UDG.Epoch() != ep.Seq || ep.Backbone.Epoch() != ep.Seq {
					fail("torn snapshot: UDG and backbone from different epochs")
					return
				}
				if len(ep.Report.Components) == 0 {
					fail("epoch published without a health report")
					return
				}
				src, dst := pickAlivePair(rng, ep)
				if src < 0 {
					continue
				}
				path, err := ep.Route(src, dst)
				if err == nil {
					// Validate against the pinned epoch, not the current one.
					if path[0] != src || path[len(path)-1] != dst {
						fail("path does not connect its endpoints")
						return
					}
					for i := 1; i < len(path); i++ {
						if !ep.UDG.HasEdge(path[i-1], path[i]) {
							fail("path step is not an edge of the pinned snapshot")
							return
						}
					}
				}
				queries.Add(1)
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		h := s.Handler()
		for {
			select {
			case <-stop:
				return
			default:
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
			var hr HealthResponse
			if err := json.NewDecoder(rec.Body).Decode(&hr); err != nil {
				fail("healthz: " + err.Error())
				return
			}
			if hr.Alive+hr.Dead != n {
				fail(fmt.Sprintf("healthz epoch %d mixes epochs: alive %d + dead %d != %d nodes", hr.Epoch, hr.Alive, hr.Dead, n))
				return
			}
			queries.Add(1)
		}
	}()

	for epoch := 0; epoch < 15; epoch++ {
		if _, err := s.Apply(sched.Batch(25)); err != nil {
			close(stop)
			wg.Wait()
			t.Fatalf("writer epoch %d: %v", epoch+1, err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
	if queries.Load() == 0 {
		t.Fatal("readers completed no queries")
	}
}

// TestReadersProgressDuringApply pins the non-blocking contract: queries
// complete while the writer is inside Apply, i.e. a query never waits for
// a swap to finish. The writer flags the window around each Apply call;
// across 10 epochs of a 400-node instance the readers must complete
// queries inside those windows.
func TestReadersProgressDuringApply(t *testing.T) {
	if testing.Short() {
		t.Skip("large instance; skipped in -short")
	}
	s, inst := newServer(t, 73, 400)
	sched := NewScheduler(74, inst.Points, 200, inst.Radius)

	var applying atomic.Bool
	var during atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(2000 + r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				ep := s.Current()
				src, dst := pickAlivePair(rng, ep)
				if src >= 0 {
					ep.Route(src, dst)
				}
				if applying.Load() {
					during.Add(1)
				}
			}
		}(r)
	}

	for epoch := 0; epoch < 10; epoch++ {
		applying.Store(true)
		_, err := s.Apply(sched.Batch(60))
		applying.Store(false)
		if err != nil {
			close(stop)
			wg.Wait()
			t.Fatalf("writer epoch %d: %v", epoch+1, err)
		}
	}
	close(stop)
	wg.Wait()
	if during.Load() == 0 {
		t.Fatal("no query completed while the writer was applying — readers are blocking on the swap")
	}
}
