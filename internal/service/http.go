package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
)

// Handler returns the daemon's HTTP+JSON API:
//
//	GET  /healthz          → 200 while the process is alive
//	GET  /readyz           → 200 accepting jobs, 503 while draining
//	GET  /metrics          → plaintext operational counters
//	POST /jobs             → submit a JobSpec; 202 with the queued Job
//	GET  /jobs             → all jobs in submission order
//	GET  /jobs/{id}        → one job's structured status
//	POST /jobs/{id}/cancel → cancel a queued or running job
//
// With a coordinator attached, the coord protocol (POST
// /coord/heartbeat, /coord/work, /coord/delta) mounts on the same mux
// and /metrics appends the per-worker lease/heartbeat view.
//
// Every response body is JSON except /metrics; errors are
// {"error": "..."} with a matching status code.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.Draining() {
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		spec, err := decodeJobSpec(r.Body)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		job, err := s.Submit(spec)
		if err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusAccepted, job)
	})
	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.List())
	})
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		job, ok := s.Get(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, ErrNotFound)
			return
		}
		writeJSON(w, http.StatusOK, job)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		s.writeMetrics(w)
		if s.cfg.Coordinator != nil {
			s.cfg.Coordinator.WriteMetrics(w)
		}
	})
	if s.cfg.Coordinator != nil {
		s.cfg.Coordinator.Register(mux)
	}
	mux.HandleFunc("POST /jobs/{id}/cancel", func(w http.ResponseWriter, r *http.Request) {
		job, err := s.Cancel(r.PathValue("id"))
		if err != nil && !errors.Is(err, ErrFinished) {
			// Canceling an already-finished job is a no-op, not an error:
			// the client races the worker and must not see a failure when
			// it merely lost.
			writeError(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, job)
	})
	return mux
}

// writeMetrics emits the server's counters in the plaintext
// `name{labels} value` exposition format, names and labels in a fixed
// order so scrapes and tests see a stable document.
func (s *Server) writeMetrics(w io.Writer) {
	s.mu.Lock()
	counts := map[JobStatus]int{}
	for _, job := range s.jobs {
		counts[job.Status]++
	}
	queueDepth := len(s.queue)
	hits := s.cacheHits
	s.mu.Unlock()

	fmt.Fprintf(w, "chipletd_cache_hits_total %d\n", hits)
	fmt.Fprintf(w, "chipletd_cache_records %d\n", s.cache.Len())
	for _, st := range []JobStatus{StatusQueued, StatusRunning, StatusDone, StatusFailed, StatusCanceled} {
		fmt.Fprintf(w, "chipletd_jobs{status=%q} %d\n", st, counts[st])
	}
	fmt.Fprintf(w, "chipletd_queue_depth %d\n", queueDepth)
}

// decodeJobSpec reads one submitted JobSpec, refusing unknown fields so a
// misspelled field name fails loudly instead of being silently dropped.
func decodeJobSpec(r io.Reader) (JobSpec, error) {
	var spec JobSpec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	return spec, err
}

// statusFor maps service errors to HTTP status codes.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrDraining), errors.Is(err, ErrQueueFull):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
