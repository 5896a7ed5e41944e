package service

import (
	"sync/atomic"
	"time"
)

// latencyBoundsMS are the fixed histogram bucket upper bounds in
// milliseconds (bucket i covers (bounds[i-1], bounds[i]]; a final
// overflow bucket catches everything beyond the last bound). Fixed
// buckets keep the hot path to two atomic adds — no sorting, no
// reservoir, and no wall-clock reads beyond the submit and resolve
// stamps taken by the server.
var latencyBoundsMS = [...]int64{
	1, 2, 5, 10, 25, 50, 100, 250, 500,
	1_000, 2_500, 5_000, 10_000, 30_000, 60_000, 300_000,
}

const histBuckets = len(latencyBoundsMS) + 1

// histogram is a fixed-bucket latency histogram safe for concurrent
// observation without locks.
type histogram struct {
	buckets   [histBuckets]atomic.Int64
	count     atomic.Int64
	sumMicros atomic.Int64
}

func (h *histogram) observe(d time.Duration) {
	ms := d.Milliseconds()
	i := 0
	for i < len(latencyBoundsMS) && ms > latencyBoundsMS[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sumMicros.Add(d.Microseconds())
}

// counts snapshots the bucket occupancy.
func (h *histogram) counts() [histBuckets]int64 {
	var out [histBuckets]int64
	for i := range out {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// quantileMS estimates the q-quantile (0 < q <= 1) in milliseconds from
// a bucket snapshot, interpolating linearly within the winning bucket.
// The overflow bucket reports its lower bound (the histogram cannot see
// past it). Returns 0 when the histogram is empty.
func quantileMS(counts [histBuckets]int64, q float64) float64 {
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum int64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if float64(cum+c) >= rank {
			lo := int64(0)
			if i > 0 {
				lo = latencyBoundsMS[i-1]
			}
			if i == len(latencyBoundsMS) {
				return float64(lo)
			}
			hi := latencyBoundsMS[i]
			frac := (rank - float64(cum)) / float64(c)
			return float64(lo) + frac*float64(hi-lo)
		}
		cum += c
	}
	return float64(latencyBoundsMS[len(latencyBoundsMS)-1])
}

// StoreMetrics is the result store's counter-and-latency snapshot.
type StoreMetrics struct {
	// Entries is the number of completed results resident; Inflight the
	// number of singleflight claims currently executing.
	Entries  int `json:"entries"`
	Inflight int `json:"inflight"`
	// Hits counts servings that required no new execution, Misses new
	// leader claims, Evictions completed entries dropped by the LRU cap.
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	// Resolved is the number of submit-to-terminal latencies observed.
	Resolved int64 `json:"resolved"`
	// P50/P90/P99 are submit-to-terminal latency quantiles in
	// milliseconds, from the fixed-bucket histogram.
	P50MS float64 `json:"p50_ms"`
	P90MS float64 `json:"p90_ms"`
	P99MS float64 `json:"p99_ms"`
	// MeanMS is the exact mean latency (sum/count, not bucketed).
	MeanMS float64 `json:"mean_ms"`
	// ThroughputPerSec is resolved jobs per second of server uptime.
	ThroughputPerSec float64 `json:"throughput_per_sec"`
}

// WorkerMetrics describes the run-executing pool.
type WorkerMetrics struct {
	// Live is the number of running pool workers: Options.Workers while
	// serving, 0 after Drain.
	Live int `json:"live"`
}

// JobMetrics is one retained job's execution record: its simulated-cycle
// throughput, zero for jobs that executed nothing (dedup followers, cache
// hits, canceled-before-start) — observability never inherits a leader's
// numbers.
type JobMetrics struct {
	ID            string  `json:"id"`
	State         string  `json:"state"`
	MCyclesPerSec float64 `json:"mcycles_per_sec,omitempty"`
}

// Metrics is the GET /v1/metrics payload.
type Metrics struct {
	UptimeSec  float64       `json:"uptime_sec"`
	Global     StoreMetrics  `json:"global"`
	Workers    WorkerMetrics `json:"workers"`
	QueueLen   int           `json:"queue_len"`
	QueueDepth int           `json:"queue_depth"`
	// JobsRetained/JobsEvicted describe the terminal-job registry
	// (bounded by Options.JobHistory).
	JobsRetained int   `json:"jobs_retained"`
	JobsEvicted  int64 `json:"jobs_evicted"`
	// Jobs lists the registry's jobs in submission order (bounded by
	// Options.JobHistory).
	Jobs []JobMetrics `json:"jobs,omitempty"`
}

// Snapshot renders the store's counters and latency quantiles.
func (st *Store) Snapshot() StoreMetrics {
	st.mu.Lock()
	m := StoreMetrics{
		Entries:   st.lru.Len(),
		Inflight:  len(st.entries) - st.lru.Len(),
		Hits:      st.hits,
		Misses:    st.misses,
		Evictions: st.evictions,
	}
	st.mu.Unlock()
	counts := st.hist.counts()
	m.Resolved = st.hist.count.Load()
	m.P50MS = quantileMS(counts, 0.50)
	m.P90MS = quantileMS(counts, 0.90)
	m.P99MS = quantileMS(counts, 0.99)
	if m.Resolved > 0 {
		m.MeanMS = float64(st.hist.sumMicros.Load()) / float64(m.Resolved) / 1000
	}
	if s := time.Since(st.start).Seconds(); s > 0 {
		m.ThroughputPerSec = float64(m.Resolved) / s
	}
	return m
}
