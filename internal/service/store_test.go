package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"testing"
	"time"
)

// fakeHash produces a realistic canonical hash (hex SHA-256) from a
// label, matching what core.Config.Hash emits.
func fakeHash(label string) string {
	sum := sha256.Sum256([]byte(label))
	return hex.EncodeToString(sum[:])
}

// complete drives a hash through the leader path to a cached success.
func complete(t *testing.T, st *Store, hash string) {
	t.Helper()
	e, leader := st.Begin(hash)
	if !leader {
		t.Fatalf("hash %.12s already claimed", hash)
	}
	st.Complete(hash, e, Outcome{Report: "r-" + hash[:8]})
}

// TestCapacityIsExact: the store keeps exactly its capacity of
// completed entries resident, whatever shard count NewStore is handed,
// and the first eviction comes at insert capacity+1.
func TestCapacityIsExact(t *testing.T) {
	for _, n := range []int{5, 12, 100} {
		st := NewStore(8, n)
		firstEviction := 0
		for i := 1; i <= 400; i++ {
			complete(t, st, fakeHash(fmt.Sprintf("cap-%d-%d", n, i)))
			if firstEviction == 0 && st.Evictions() > 0 {
				firstEviction = i
			}
		}
		if firstEviction != n+1 {
			t.Errorf("NewStore(8, %d): first eviction at insert %d, want %d", n, firstEviction, n+1)
		}
		m := st.Snapshot()
		if m.Entries != n || m.Evictions != int64(400-n) {
			t.Errorf("NewStore(8, %d): %d entries resident, %d evictions; want %d and %d",
				n, m.Entries, m.Evictions, n, 400-n)
		}
	}
}

// TestServerCacheEntriesIsExact: Options.CacheEntries is the store's
// exact capacity, so five distinct jobs through a 3-entry server leave
// three results resident and two evicted.
func TestServerCacheEntriesIsExact(t *testing.T) {
	srv := New(Options{Workers: 1, CacheEntries: 3, Logf: t.Logf})
	defer srv.Drain()
	for seed := int64(1); seed <= 5; seed++ {
		job, err := srv.Submit(Request{Workload: "Pmake", Seed: seed, Window: 250_000, Warmup: 100_000})
		if err != nil {
			t.Fatal(err)
		}
		<-job.Done()
		if st := job.Snapshot(); st.State != StateDone {
			t.Fatalf("seed %d ended %s: %s", seed, st.State, st.Error)
		}
	}
	if g := srv.Metrics().Global; g.Entries != 3 || g.Evictions != 2 {
		t.Errorf("global = %+v, want 3 entries and 2 evictions", g)
	}
}

// TestLRUEviction: completed entries beyond the cap evict
// least-recently-used, evictions are counted, and a re-submission of an
// evicted config becomes a fresh leader (it re-runs).
func TestLRUEviction(t *testing.T) {
	st := NewStore(1, 3) // three completed entries
	h := make([]string, 5)
	for i := range h {
		h[i] = fakeHash(fmt.Sprintf("lru-%d", i))
	}
	for _, hash := range h[:3] {
		complete(t, st, hash)
	}
	// Touch h0 so h1 becomes the LRU victim.
	if _, leader := st.Begin(h[0]); leader {
		t.Fatal("h0 should be a cache hit")
	}
	complete(t, st, h[3]) // evicts h1
	if got := st.Evictions(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	if _, leader := st.Begin(h[1]); !leader {
		t.Error("evicted h1 should re-run (leader), but was served from cache")
	} else {
		st.Abandon(h[1], mustEntry(t, st, h[1]), Outcome{})
	}
	for _, hash := range []string{h[0], h[2], h[3]} {
		if _, leader := st.Begin(hash); leader {
			t.Errorf("recently used %.12s was evicted", hash)
		}
	}
}

func mustEntry(t *testing.T, st *Store, hash string) *cacheEntry {
	t.Helper()
	st.mu.Lock()
	defer st.mu.Unlock()
	e, ok := st.entries[hash]
	if !ok {
		t.Fatalf("no entry for %.12s", hash)
	}
	return e
}

// TestInflightNeverEvicted: entries still executing are not in the LRU
// and survive any amount of completed-entry churn.
func TestInflightNeverEvicted(t *testing.T) {
	st := NewStore(1, 2)
	inflight := fakeHash("inflight")
	e, leader := st.Begin(inflight)
	if !leader {
		t.Fatal("fresh hash not leader")
	}
	for i := 0; i < 16; i++ {
		complete(t, st, fakeHash(fmt.Sprintf("churn-%d", i)))
	}
	if st.Evictions() == 0 {
		t.Fatal("churn produced no evictions")
	}
	if got := mustEntry(t, st, inflight); got != e {
		t.Fatal("in-flight entry replaced under churn")
	}
	// Followers attached before completion must still get the outcome.
	follower, leader := st.Begin(inflight)
	if leader {
		t.Fatal("in-flight hash re-claimed as leader")
	}
	go st.Complete(inflight, e, Outcome{Report: "late"})
	if out := follower.Wait(); out.Report != "late" {
		t.Fatalf("follower got %q", out.Report)
	}
}

// TestCanceledOutcomesNotCached: nondeterministic outcomes are evicted
// at Complete, so a resubmission re-runs.
func TestCanceledOutcomesNotCached(t *testing.T) {
	st := NewStore(4, 16)
	hash := fakeHash("canceled")
	e, _ := st.Begin(hash)
	st.Complete(hash, e, Outcome{Err: ErrDraining})
	if _, leader := st.Begin(hash); !leader {
		t.Error("canceled outcome stayed cached")
	}
}

// TestStoreConcurrentBeginComplete hammers one store from many
// goroutines; run under -race this is the store lock's regression test.
func TestStoreConcurrentBeginComplete(t *testing.T) {
	st := NewStore(8, 32)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				hash := fakeHash(fmt.Sprintf("c-%d", (g*7+i)%64))
				e, leader := st.Begin(hash)
				if leader {
					st.Complete(hash, e, Outcome{Report: hash[:6]})
				} else if out := e.Wait(); out.Report != hash[:6] {
					t.Errorf("wrong outcome for %.12s: %q", hash, out.Report)
				}
				st.RecordLatency(hash, time.Duration(i)*time.Millisecond)
			}
		}(g)
	}
	wg.Wait()
	global := st.Snapshot()
	if global.Hits+global.Misses != 16*200 {
		t.Errorf("hits+misses = %d, want %d", global.Hits+global.Misses, 16*200)
	}
	if global.Entries != 32 || global.Inflight != 0 {
		t.Errorf("%d completed entries resident and %d in flight, want 32 and 0", global.Entries, global.Inflight)
	}
	if global.Resolved != 16*200 {
		t.Errorf("resolved latencies = %d, want %d", global.Resolved, 16*200)
	}
}

// TestHistogramQuantiles pins the fixed-bucket quantile math.
func TestHistogramQuantiles(t *testing.T) {
	var h histogram
	// 100 observations at ~3ms (bucket (2,5]), 10 at ~40ms, 1 at ~2s.
	for i := 0; i < 100; i++ {
		h.observe(3 * time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		h.observe(40 * time.Millisecond)
	}
	h.observe(2 * time.Second)
	c := h.counts()
	p50, p99 := quantileMS(c, 0.50), quantileMS(c, 0.99)
	if p50 <= 2 || p50 > 5 {
		t.Errorf("p50 = %.2fms, want within (2,5]", p50)
	}
	if p99 <= 25 || p99 > 50 {
		t.Errorf("p99 = %.2fms, want within (25,50]", p99)
	}
	if p100 := quantileMS(c, 1.0); p100 <= 1000 || p100 > 2500 {
		t.Errorf("p100 = %.2fms, want within (1000,2500]", p100)
	}
	if got := quantileMS([histBuckets]int64{}, 0.99); got != 0 {
		t.Errorf("empty histogram p99 = %v, want 0", got)
	}
	// Quantiles are monotone in q.
	prev := 0.0
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99, 1} {
		v := quantileMS(c, q)
		if v < prev {
			t.Errorf("quantile(%v) = %v < quantile at lower q %v", q, v, prev)
		}
		prev = v
	}
}
