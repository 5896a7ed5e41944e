package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"regexp"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/service"
)

// The two service workloads run a real charosd on loopback and load it
// from this process with closed-loop clients: charosd clients wait for a
// reply, so each client sends its next request only when the previous one
// is terminal, and latency is timed per request from send to terminal
// status. Client count is min(2, nproc): the host has two cores and the
// daemon needs one.

// daemon is one running charosd.
type daemon struct {
	cmd  *exec.Cmd
	base string
	done chan struct{} // closed once stderr is drained
}

var servingRE = regexp.MustCompile(`serving on (\S+) `)

// startDaemon launches charosd on an ephemeral loopback port, learns the
// port from its first log line and waits for /readyz.
func startDaemon(bin string, extra ...string) (*daemon, error) {
	args := append([]string{"-addr", "127.0.0.1:0", "-workers", "2"}, extra...)
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1) // one send: the first matching line
	go func() {
		defer close(d.done)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if m := servingRE.FindStringSubmatch(sc.Text()); m != nil {
				addr <- m[1]
				break
			}
		}
		// The daemon logs one line per job; keep the pipe drained.
		_, _ = io.Copy(io.Discard, stderr)
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.done:
		d.stop()
		return nil, fmt.Errorf("charosd exited before serving")
	case <-time.After(10 * time.Second):
		d.stop()
		return nil, fmt.Errorf("charosd did not report its address within 10s")
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(d.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("charosd not ready within 10s: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop sends SIGTERM (the daemon drains and exits) and waits for it.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	exited := make(chan struct{})
	go func() {
		<-d.done
		_ = d.cmd.Wait()
		close(exited)
	}()
	select {
	case <-exited:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-exited
	}
}

// svcWorkload is svc-hit or svc-miss.
type svcWorkload struct {
	hit     bool
	bin     string
	seed    int64
	clients int
	batch   int   // requests per op
	window  int64 // per-request traced window
	flags   []string

	d       *daemon
	hc      *http.Client
	hot     []service.Request
	hotWant []string // the report each hot config must return
	// sampled holds the (request, report) pairs verify re-runs in
	// process; lat pools every timed request's latency in ms.
	sampled []svcSample
	lat     []float64
	walls   []float64 // batch walls, for req_per_s
	rssPeak float64   // the daemon's VmHWM after the last batch
	last    service.Metrics
}

type svcSample struct {
	req    service.Request
	report string
}

var svcKinds = []string{"Pmake", "Multpgm", "Oracle"}

// Batches are sized so one takes about a second here: long enough that
// the daemon's CPU time, read in 10 ms ticks, resolves to about 1%.
const (
	svcHitBatch  = 7500
	svcMissBatch = 40
)

func newSvcWorkload(name string, env *runEnv) *svcWorkload {
	w := &svcWorkload{
		hit: name == "svc-hit", bin: env.bin("charosd"), seed: env.seed,
		clients: min(2, env.nproc), window: env.size.window(winSvc),
	}
	w.hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: w.clients}}
	if w.hit {
		w.batch = env.size.requests(svcHitBatch)
		for j := 0; j < 4; j++ {
			w.hot = append(w.hot, service.Request{Workload: svcKinds[j%3], Seed: simSeed(w.seed, j), Window: w.window})
		}
	} else {
		w.batch = env.size.requests(svcMissBatch)
		if env.size.smoke {
			w.batch = 24 // 500 simulations would not be a smoke test
		}
		// A store a fifth the size of a run's requests, so inserts evict
		// from the second batch on.
		w.flags = []string{"-cache-entries", "64"}
	}
	return w
}

func (w *svcWorkload) simCycles() int64 {
	return (w.window + w.window/2) * 4 * int64(w.batch)
}
func (w *svcWorkload) opsPerCycle() int { return 1 }

func (w *svcWorkload) client() *service.Client {
	return &service.Client{Base: w.d.base, HTTP: w.hc}
}

// missRequest is the i-th distinct request of a run.
func (w *svcWorkload) missRequest(i int) service.Request {
	return service.Request{Workload: svcKinds[i%3], Seed: w.seed*1_000_000 + int64(i) + 1, Window: w.window}
}

// setup starts the daemon and warms it: the hot configs are simulated
// once so every timed svc-hit request is a store hit; svc-miss sends two
// requests outside the timed seed range so connections and the worker
// pool exist before timing.
func (w *svcWorkload) setup() error {
	d, err := startDaemon(w.bin, w.flags...)
	if err != nil {
		return err
	}
	w.d = d
	warm := w.hot
	if !w.hit {
		warm = []service.Request{w.missRequest(900_000), w.missRequest(900_001)}
	}
	w.hotWant = w.hotWant[:0]
	cl := w.client()
	for _, req := range warm {
		st, err := cl.Submit(context.Background(), req)
		if err != nil {
			return err
		}
		if st.State != service.StateDone {
			return fmt.Errorf("warm-up job %s: %s %s", st.ID, st.State, st.Error)
		}
		w.hotWant = append(w.hotWant, st.Report)
	}
	return nil
}

func (w *svcWorkload) teardown() {
	if w.d != nil {
		w.d.stop()
		w.d = nil
	}
	w.hc.CloseIdleConnections()
}

// op is one batch: the clients split w.batch requests between them.
func (w *svcWorkload) op(i int) opResult {
	res := opResult{Key: "batch" + strconv.Itoa(i), Units: w.batch}
	pid := w.d.cmd.Process.Pid
	cpu0, err := procCPU(pid)
	if err != nil {
		res.Failed, res.Why = w.batch, []string{err.Error()}
		return res
	}
	reports := make([]string, w.batch)
	lats := make([]float64, w.batch)
	errs := make([]string, w.batch)
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := w.client()
			for k := c; k < w.batch; k += w.clients {
				var req service.Request
				if w.hit {
					req = w.hot[k%len(w.hot)]
				} else {
					req = w.missRequest(i*w.batch + k)
				}
				s := time.Now()
				st, err := cl.Submit(context.Background(), req)
				lats[k] = float64(time.Since(s).Nanoseconds()) / 1e6
				switch {
				case err != nil:
					errs[k] = err.Error()
				case st.State != service.StateDone:
					errs[k] = fmt.Sprintf("job %s: %s %s", st.ID, st.State, st.Error)
				case w.hit && st.Report != w.hotWant[k%len(w.hot)]:
					errs[k] = fmt.Sprintf("job %s: report differs from the one the same config returned at warm-up", st.ID)
				case st.Report == "":
					errs[k] = fmt.Sprintf("job %s: empty report", st.ID)
				}
				reports[k] = st.Report
			}
		}(c)
	}
	wg.Wait()
	res.Wall = time.Since(t0).Seconds()
	w.walls = append(w.walls, res.Wall)
	if cpu1, err := procCPU(pid); err == nil {
		res.CPU = cpu1 - cpu0
	}
	res.RSSMB, w.rssPeak, _ = procRSSMB(pid)
	w.lat = append(w.lat, lats...)

	h := sha256.New()
	for k, rep := range reports {
		_, _ = io.WriteString(h, rep)
		if errs[k] != "" {
			res.Failed++
			if len(res.Why) < 5 {
				res.Why = append(res.Why, errs[k])
			}
		}
		// Every eighth miss is re-simulated in process afterwards.
		if !w.hit && k%8 == 0 && errs[k] == "" {
			w.sampled = append(w.sampled, svcSample{w.missRequest(i*w.batch + k), rep})
		}
	}
	if w.hit {
		// A hit batch's digest is the same whatever the batch index.
		res.Key = "batch"
	}
	res.Digest = hex.EncodeToString(h.Sum(nil))
	w.fetchMetrics()
	return res
}

func (w *svcWorkload) fetchMetrics() {
	resp, err := w.hc.Get(w.d.base + "/v1/metrics")
	if err != nil {
		return
	}
	defer resp.Body.Close()
	var m service.Metrics
	if decodeJSON(resp.Body, &m) == nil {
		w.last = m
	}
}

// verify re-runs requests in process with core.Run and compares the
// daemon's reports byte for byte: all four hot configs for svc-hit, every
// eighth request for svc-miss.
func (w *svcWorkload) verify() (attempted, failed int, exact map[string]float64, why []string) {
	samples := w.sampled
	if w.hit {
		for j, req := range w.hot {
			samples = append(samples, svcSample{req, w.hotWant[j]})
		}
	}
	for _, s := range samples {
		attempted++
		cfg, err := s.req.Config()
		if err != nil {
			failed++
			why = append(why, err.Error())
			continue
		}
		if want := report.Single(core.Run(cfg)); want != s.report {
			failed++
			why = append(why, fmt.Sprintf("%s seed %d: daemon report differs from report.Single(core.Run(cfg))", s.req.Workload, s.req.Seed))
		}
	}
	return attempted, failed, nil, why
}

// extras reports what a client of the daemon sees per request, beside the
// daemon's own view from GET /v1/metrics after the last batch. They are
// printed and filed but not gated: the latency tail is too noisy on two
// shared cores to carry a bound (see README).
func (w *svcWorkload) extras() map[string]float64 {
	out := map[string]float64{
		"requests":           float64(len(w.lat)),
		"daemon.rss_peak_mb": w.rssPeak,
		"req_per_s":          float64(w.batch) / median(w.walls),
		"lat_p50_ms":         median(w.lat),
		"lat_min_ms":         percentile(w.lat, 0),
		"lat_max_ms":         percentile(w.lat, 100),
	}
	if p, ok := tailPercentile(len(w.lat)); ok {
		out["lat_tail_pct"] = p
		out["lat_tail_ms"] = percentile(w.lat, p)
	}
	g := w.last.Global
	if g.Hits+g.Misses > 0 {
		out["daemon.cache_hit_ratio"] = float64(g.Hits) / float64(g.Hits+g.Misses)
	}
	out["daemon.evictions"] = float64(g.Evictions)
	out["daemon.workers_live"] = float64(w.last.Workers.Live)
	out["daemon.server_p99_ms"] = g.P99MS
	return out
}
