package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// Limits on what one client connection may hold of the daemon. Reads are
// bounded — a request is a few hundred bytes of JSON — and responses are
// not: ?wait=1 legitimately holds a response open for as long as a job runs.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 2 * time.Minute
	maxBodyBytes      = 1 << 20
)

// HTTPServer returns the http.Server that serves the API with those
// limits. It has no Addr: the caller owns the listener.
func (s *Server) HTTPServer() *http.Server {
	return &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// Handler returns the server's HTTP API:
//
//	POST /v1/jobs           submit a Request; ?wait=1 blocks until terminal.
//	                        202 accepted, 200 terminal (wait=1), 400 bad
//	                        request, 413 body over 1 MiB, 429 + Retry-After
//	                        shed, 503 draining.
//	GET  /v1/jobs           list every job's status, submission order.
//	GET  /v1/jobs/{id}      one job's status; ?wait=1 blocks until terminal.
//	GET  /v1/stats          counter snapshot.
//	GET  /v1/metrics        per-shard + global cache counters, p50/p90/p99
//	                        submit-to-terminal latency, throughput, worker
//	                        pool and registry state.
//	GET  /healthz           200 while the process lives.
//	GET  /readyz            200 while admitting, 503 once draining.
//
// Completed jobs report success with the run's deterministic report;
// failed and canceled jobs report the structured error (kind, message,
// provenance cycle) instead — robustness outcomes are data, not opaque
// 500s.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.Draining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

type errorBody struct {
	Error string `json:"error"`
}

// decodeRequest reads one Request: a single JSON object, then nothing but
// whitespace.
func decodeRequest(body io.Reader) (Request, error) {
	var req Request
	// Reject unknown fields instead of ignoring them: a typoed field
	// (e.g. "windwo") would otherwise silently run — and cache — the
	// default config. The decode error names the offending field.
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return Request{}, err
	}
	switch _, err := dec.Token(); {
	case err == io.EOF:
		return req, nil
	case err == nil || errors.As(err, new(*json.SyntaxError)):
		return Request{}, errors.New("unexpected data after the request object")
	default:
		return Request{}, err // the read failed: body limit, broken connection
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := decodeRequest(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if tooBig := new(http.MaxBytesError); errors.As(err, &tooBig) {
		writeJSON(w, http.StatusRequestEntityTooLarge,
			errorBody{Error: fmt.Sprintf("request body exceeds the %d-byte limit", tooBig.Limit)})
		return
	}
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad request body: " + err.Error()})
		return
	}
	job, err := s.Submit(req)
	switch {
	case errors.Is(err, ErrSaturated):
		w.Header().Set("Retry-After", strconv.Itoa(int(s.RetryAfter().Seconds()+0.999)))
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: err.Error()})
		return
	case errors.Is(err, ErrDrainingSubmit):
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
		return
	case err != nil:
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	if r.URL.Query().Get("wait") == "1" {
		select {
		case <-job.Done():
			writeJSON(w, http.StatusOK, job.Snapshot())
		case <-r.Context().Done():
			// Client went away; the job keeps running (it is accepted).
		}
		return
	}
	writeJSON(w, http.StatusAccepted, job.Snapshot())
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no such job"})
		return
	}
	if r.URL.Query().Get("wait") == "1" {
		select {
		case <-job.Done():
		case <-r.Context().Done():
			return
		}
	}
	writeJSON(w, http.StatusOK, job.Snapshot())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.Jobs()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.Snapshot()
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Metrics())
}
