// Request intake: strict decoding, range validation at submit, and the
// HTTP server's limits on what one client may hold.
package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestUnknownFieldRejected: a typoed request field must 400 (naming the
// field) instead of silently running — and caching — the default config.
func TestUnknownFieldRejected(t *testing.T) {
	srv, cl := newTestServer(t, Options{Workers: 1})
	body := `{"workload": "Pmake", "windwo": 500000}`
	resp, err := http.Post(cl.Base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("typoed submission returned %d, want 400", resp.StatusCode)
	}
	var eb errorBody
	if err := jsonDecode(resp, &eb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(eb.Error, "windwo") {
		t.Errorf("error %q does not name the unknown field", eb.Error)
	}
	if got := srv.Stats(); got.Accepted != 0 {
		t.Errorf("typoed submission was accepted: %+v", got)
	}
}

func jsonDecode(resp *http.Response, v any) error {
	return json.NewDecoder(resp.Body).Decode(v)
}

// postRaw submits a raw body and returns the status code and, for error
// replies, the server's message.
func postRaw(t *testing.T, base string, body io.Reader) (int, string) {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var eb errorBody
	if err := jsonDecode(resp, &eb); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, eb.Error
}

// TestRequestRangesRejectedAtSubmit: a number outside its range, or bytes
// after the request object, is the client's 400 naming the field — never an
// admitted job that panics in a worker, silently runs a default, or pins a
// worker for a minute. The boundaries of each range are accepted.
func TestRequestRangesRejectedAtSubmit(t *testing.T) {
	srv, cl := newTestServer(t, Options{Workers: 1})
	for _, tc := range []struct{ body, names string }{
		{`{"workload":"pmake","ncpu":-3}`, "ncpu -3"},
		{`{"workload":"pmake","ncpu":65}`, "ncpu 65"},
		{`{"workload":"pmake","ncpu":5000,"window":200000}`, "ncpu 5000"},
		{`{"workload":"pmake","window":-5}`, "window -5"},
		{`{"workload":"pmake","warmup":-1}`, "warmup -1"},
		{`{"workload":"pmake","timeout_ms":-1}`, "timeout_ms -1"},
		{`{"workload":"pmake","sim_workers":2}`, `unknown field "sim_workers"`},
		{`{"workload":"pmake","window":250000,"sample":"100K:200K:10M"}`, "sample: schedule 100K:200K:10M fits no measured interval"},
		{`{"workload":"pmake"} {"workload":"pmake"}`, "after the request object"},
		{`{"workload":"pmake"}]`, "after the request object"},
	} {
		code, msg := postRaw(t, cl.Base, strings.NewReader(tc.body))
		if code != http.StatusBadRequest || !strings.Contains(msg, tc.names) {
			t.Errorf("%s: %d %q, want 400 naming %q", tc.body, code, msg, tc.names)
		}
	}
	if got := srv.Stats().Accepted; got != 0 {
		t.Fatalf("%d rejected requests reached the queue", got)
	}

	for _, r := range []Request{
		{Workload: "pmake"}, // every number 0: the defaults
		{Workload: "pmake", NCPU: 1},
		{Workload: "pmake", NCPU: maxNCPU, Machine: "4d380"},
	} {
		cfg, err := r.Config()
		if err != nil {
			t.Errorf("%+v rejected: %v", r, err)
		} else if err := cfg.Canonical().Machine.Validate(); err != nil {
			t.Errorf("%+v accepted with an unbuildable machine: %v", r, err)
		}
	}
	// Whitespace after the object is not trailing data.
	code, msg := postRaw(t, cl.Base, strings.NewReader(`{"workload":"pmake","window":400000,"warmup":200000}`+"\n \t\r\n"))
	if code != http.StatusAccepted {
		t.Errorf("request followed by whitespace: %d %q, want 202", code, msg)
	}
	srv.Drain()
}

// TestOversizedBodyRejected: a body over the limit gets 413 naming the
// limit — whether the excess is inside the object or padding after it — and
// is never admitted.
func TestOversizedBodyRejected(t *testing.T) {
	srv, cl := newTestServer(t, Options{Workers: 1})
	pad := strings.Repeat(" ", 2<<20)
	for name, body := range map[string]string{
		"2 MiB field":            `{"workload":"pmake","sample":"` + strings.Repeat("x", 2<<20) + `"}`,
		"2 MiB after the object": `{"workload":"pmake"}` + pad,
	} {
		code, msg := postRaw(t, cl.Base, strings.NewReader(body))
		if code != http.StatusRequestEntityTooLarge || !strings.Contains(msg, strconv.Itoa(maxBodyBytes)) {
			t.Errorf("%s: %d %q, want 413 naming the %d-byte limit", name, code, msg, maxBodyBytes)
		}
	}
	if got := srv.Stats().Accepted; got != 0 {
		t.Errorf("%d oversized requests reached the queue", got)
	}
}

// TestSlowHeaderClientDropped: a connection that dribbles its request
// header a byte at a time is closed by the server, and while it dribbles a
// healthy client on another connection is served normally.
func TestSlowHeaderClientDropped(t *testing.T) {
	srv := New(Options{Workers: 1, Logf: t.Logf})
	defer srv.Drain()
	hs := srv.HTTPServer()
	if hs.ReadHeaderTimeout <= 0 || hs.ReadTimeout <= 0 || hs.IdleTimeout <= 0 {
		t.Fatalf("server built without read limits: header %v, read %v, idle %v",
			hs.ReadHeaderTimeout, hs.ReadTimeout, hs.IdleTimeout)
	}
	if hs.WriteTimeout != 0 {
		t.Fatalf("WriteTimeout %v would cut ?wait=1 long polls short", hs.WriteTimeout)
	}
	// Same mechanism as production, with the header budget shortened so the
	// test does not wait out the real one.
	hs.ReadHeaderTimeout = 300 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = hs.Serve(ln)
	}()
	defer func() {
		_ = hs.Close()
		<-served
	}()

	slow, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	if _, err := io.WriteString(slow, "POST /v1/jobs HTTP/1.1\r\nHost: charosd\r\nX-Slow: "); err != nil {
		t.Fatal(err)
	}
	dropped := make(chan struct{})
	go func() {
		defer close(dropped)
		_, _ = io.Copy(io.Discard, slow) // returns when the server closes
	}()

	healthy := make(chan error, 1)
	go func() {
		cl := &Client{Base: "http://" + ln.Addr().String()}
		st, err := cl.Submit(context.Background(), smallReq(4242))
		if err == nil && st.State != StateDone {
			err = fmt.Errorf("job ended %s: %s", st.State, st.Error)
		}
		healthy <- err
	}()

	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	deadline := time.After(10 * time.Second)
	for open := true; open; {
		select {
		case <-dropped:
			open = false
		case <-tick.C:
			_, _ = slow.Write([]byte("a")) // fails once the server has hung up
		case <-deadline:
			t.Fatal("server kept a connection that never finished its header")
		}
	}
	if err := <-healthy; err != nil {
		t.Errorf("healthy submit beside the slow client: %v", err)
	}
}

// FuzzRequestDecode drives the submit path's decoder and validation with
// arbitrary bodies: nothing panics, and whatever is accepted resolves to a
// configuration the pipeline can run and to non-negative cycle counts.
func FuzzRequestDecode(f *testing.F) {
	for _, seed := range []string{
		`{"workload":"Pmake","seed":21,"window":400000,"warmup":200000}`,
		`{"workload":"oracle","machine":"4d380","ncpu":8,"check":true,"sample":"100K:200K:10M"}`,
		`{"workload": "Pmake", "windwo": 500000}`,
		`{"workload":"pmake","ncpu":-3}`,
		`{"workload":"pmake","ncpu":5000,"window":200000}`,
		`{"workload":"pmake","window":-5}`,
		`{"workload":"pmake","timeout_ms":-1}`,
		`{"workload":"pmake","sample":"1:2"}`,
		`{"workload":"pmake"} {"workload":"pmake"}`,
		`{"workload":"pmake"}` + "\n",
		`[]`, `null`, `{`, ``,
		`{"workload":"pmake","window":250000,"sample":"100K:200K:10M"}`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body string) {
		req, err := decodeRequest(strings.NewReader(body))
		if err != nil {
			return
		}
		cfg, err := req.Config()
		if err != nil {
			return
		}
		c := cfg.Canonical()
		if err := cfg.Validate(); err != nil {
			t.Errorf("accepted %q, which the pipeline cannot run: %v", body, err)
		}
		if c.Window < 0 || c.Warmup < 0 || req.TimeoutMS < 0 {
			t.Errorf("accepted %q with a negative cycle or time field: window %d warmup %d timeout_ms %d",
				body, c.Window, c.Warmup, req.TimeoutMS)
		}
		if s := c.Sample; s.Enabled() && (s.Warmup < 0 || s.Length < 0 || s.Period < 0) {
			t.Errorf("accepted %q with a negative sample schedule %v", body, s)
		}
	})
}
