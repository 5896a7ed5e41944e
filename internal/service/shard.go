package service

import (
	"container/list"
	"hash/fnv"
	"strconv"
	"sync"
	"time"
)

// Outcome is the terminal state of an executed run, as stored in the
// cache and delivered to every job that asked for the same config.
type Outcome struct {
	// Report is the deterministic report.Single rendering (success only).
	Report string
	// Err is the structured run error (*core.CanceledError or
	// *runner.PanicError), nil on success.
	Err error
	// Cycle is the simulated cycle reached (the full window on success,
	// the abort point otherwise).
	Cycle int64
}

// Store is the content-addressed result store: runs are deterministic,
// so a completed outcome is fully determined by the canonical config
// hash. It doubles as the singleflight table — concurrent submissions of
// the same hash share one execution, with followers waiting on the
// leader's entry instead of occupying queue slots.
//
// The store is sharded: the hash's hex prefix selects one of N
// power-of-two shards, each with its own mutex, entry map, bounded LRU
// over completed entries, and latency histogram — the paper's own
// medicine (partition the hot shared structure) applied to the serving
// layer. In-flight entries are never evicted; completed entries beyond
// the per-shard capacity are evicted least-recently-used, and every
// eviction is counted.
type Store struct {
	shards   []cacheShard
	mask     uint64
	perShard int
	start    time.Time
}

type cacheShard struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
	// lru orders completed entries only (front = most recent); element
	// values are the entry hashes. In-flight entries are not in the list
	// and therefore can never be evicted out from under their waiters.
	lru *list.List

	hits, misses, evictions int64

	// hist observes submit-to-terminal latencies of jobs whose config
	// hashed to this shard.
	hist histogram
}

type cacheEntry struct {
	done     chan struct{} // closed when outcome is set
	outcome  Outcome
	inflight bool
	// elem is the entry's LRU slot once completed-and-cached (nil while
	// in flight or for entries resolved without caching).
	elem *list.Element
}

// NewStore returns an empty store with shards rounded up to a power of
// two (min 1) and about totalEntries completed results resident across
// all shards.
func NewStore(shards, totalEntries int) *Store {
	n := 1
	for n < shards {
		n <<= 1
	}
	if totalEntries <= 0 {
		totalEntries = defaultCacheEntries
	}
	per := totalEntries / n
	if per < 1 {
		per = 1
	}
	st := &Store{
		shards:   make([]cacheShard, n),
		mask:     uint64(n - 1),
		perShard: per,
		start:    time.Now(),
	}
	for i := range st.shards {
		st.shards[i].entries = make(map[string]*cacheEntry)
		st.shards[i].lru = list.New()
	}
	return st
}

// defaultCacheEntries bounds the completed-result cache when Options
// leaves it unset: enough for a large sweep campaign, small enough that
// a long-running server cannot grow without bound.
const defaultCacheEntries = 4096

// Shards returns the shard count (a power of two).
func (st *Store) Shards() int { return len(st.shards) }

// shardFor maps a canonical config hash (hex SHA-256) to its shard by
// prefix. Non-hex hashes (tests) fall back to FNV-1a.
func (st *Store) shardFor(hash string) *cacheShard {
	if len(hash) >= 8 {
		if v, err := strconv.ParseUint(hash[:8], 16, 64); err == nil {
			return &st.shards[v&st.mask]
		}
	}
	h := fnv.New32a()
	h.Write([]byte(hash))
	return &st.shards[uint64(h.Sum32())&st.mask]
}

// Begin claims hash for execution. The first caller per hash becomes the
// leader (leader=true) and must call Complete exactly once; every other
// caller gets the same entry to Wait on. Completed entries stay resident
// (and move to the front of their shard's LRU) until evicted by
// capacity, so a re-submission of a finished config is a pure cache hit.
func (st *Store) Begin(hash string) (e *cacheEntry, leader bool) {
	sh := st.shardFor(hash)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e, ok := sh.entries[hash]; ok {
		sh.hits++
		if e.elem != nil {
			sh.lru.MoveToFront(e.elem)
		}
		return e, false
	}
	sh.misses++
	e = &cacheEntry{done: make(chan struct{}), inflight: true}
	sh.entries[hash] = e
	return e, true
}

// Abandon releases a leader's claim without executing (the job was shed
// at admission). The server calls it inside the critical section that
// called Begin, so no follower can have attached; the entry is resolved
// as the given outcome all the same, so a waiter could never hang.
func (st *Store) Abandon(hash string, e *cacheEntry, out Outcome) {
	sh := st.shardFor(hash)
	sh.mu.Lock()
	delete(sh.entries, hash)
	sh.mu.Unlock()
	e.outcome = out
	e.inflight = false
	close(e.done)
}

// Complete resolves the leader's entry. Successful and panicked outcomes
// are deterministic, so they stay cached and join the shard's LRU;
// canceled outcomes depend on wall-clock timing, so the entry is evicted
// — current waiters still get the outcome, but a later resubmission
// re-runs. Cached completions beyond the shard's capacity evict the
// least-recently-used completed entry (never an in-flight one — only
// completed entries are in the LRU).
func (st *Store) Complete(hash string, e *cacheEntry, out Outcome) {
	sh := st.shardFor(hash)
	sh.mu.Lock()
	if out.Err != nil && out.Report == "" && !deterministicErr(out.Err) {
		delete(sh.entries, hash)
	} else {
		e.elem = sh.lru.PushFront(hash)
		for sh.lru.Len() > st.perShard {
			back := sh.lru.Back()
			sh.lru.Remove(back)
			delete(sh.entries, back.Value.(string))
			sh.evictions++
		}
	}
	sh.mu.Unlock()
	e.outcome = out
	e.inflight = false
	close(e.done)
}

// RecordLatency observes one job's submit-to-terminal latency in the
// histogram of the shard owning its config hash.
func (st *Store) RecordLatency(hash string, d time.Duration) {
	st.shardFor(hash).hist.observe(d)
}

// Wait blocks until the entry resolves and returns its outcome.
func (e *cacheEntry) Wait() Outcome {
	<-e.done
	return e.outcome
}

// Resolved reports whether the entry already holds an outcome.
func (e *cacheEntry) Resolved() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// Hits returns how many submissions were served without a new execution.
func (st *Store) Hits() int64 {
	var n int64
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.Lock()
		n += sh.hits
		sh.mu.Unlock()
	}
	return n
}

// Evictions returns the total completed entries evicted by capacity.
func (st *Store) Evictions() int64 {
	var n int64
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.Lock()
		n += sh.evictions
		sh.mu.Unlock()
	}
	return n
}

// Len returns the number of resident entries (in-flight included).
func (st *Store) Len() int {
	n := 0
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}
