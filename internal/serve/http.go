package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"compass/internal/telemetry"
)

// Error envelope codes. Every non-2xx response carries the uniform JSON
// body {"error": <message>, "code": <one of these>}.
const (
	codeBadRequest   = "bad_request"
	codeNotFound     = "not_found"
	codeShuttingDown = "shutting_down"
	codeNoWork       = "no_work"
	codeStaleLease   = "stale_lease"
)

// maxRequestBody bounds the bodies of job submissions and of lease
// acquire and renew requests. json.Decoder buffers a whole value before
// it can refuse it, so an unbounded body could exhaust the daemon's
// memory; a JobSpec is a few hundred bytes. Lease returns are not
// bounded: they carry a frontier whose size grows with the job.
const maxRequestBody = 1 << 20

// Handler builds the compassd HTTP API on a manager. Every route is
// versioned under /v1:
//
//	POST /v1/jobs                submit a JobSpec, returns the JobView (202)
//	GET  /v1/jobs                list all jobs
//	GET  /v1/jobs/{id}           one job's status/result
//	GET  /v1/jobs/{id}/events    NDJSON stream: one compass/telemetry/v1
//	                             snapshot per completed segment, closing
//	                             with the final totals when the job ends
//	GET  /v1/workloads           registry names
//	GET  /v1/stats               service-level telemetry snapshot
//	GET  /v1/healthz             liveness
//	POST /v1/shard/leases        acquire a lease of frontier prefixes
//	POST /v1/shard/leases/renew  extend a lease's deadline
//	POST /v1/shard/leases/return return a completed lease's delta
//
// Errors are the uniform JSON envelope {"error", "code"}.
func Handler(m *Manager) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		// Unknown fields are refused rather than ignored: a spec naming an
		// option this build lacks (say "dedup") would otherwise run as a
		// different job than the one submitted.
		var spec JobSpec
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			httpError(w, http.StatusBadRequest, codeBadRequest, fmt.Errorf("decode job spec: %w", err))
			return
		}
		j, err := m.Submit(spec)
		if err != nil {
			if errors.Is(err, ErrShuttingDown) {
				httpError(w, http.StatusServiceUnavailable, codeShuttingDown, err)
				return
			}
			httpError(w, http.StatusBadRequest, codeBadRequest, err)
			return
		}
		writeJSON(w, http.StatusAccepted, j.View())
	})
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, m.JobViews())
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		j, ok := m.Job(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, codeNotFound, fmt.Errorf("no job %q", r.PathValue("id")))
			return
		}
		writeJSON(w, http.StatusOK, j.View())
	})
	mux.HandleFunc("GET /v1/jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		j, ok := m.Job(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, codeNotFound, fmt.Errorf("no job %q", r.PathValue("id")))
			return
		}
		streamEvents(w, r, j)
	})
	mux.HandleFunc("GET /v1/workloads", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, WorkloadNames())
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, m.Stats().Snapshot())
	})
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})

	// Lease protocol.
	mux.HandleFunc("POST /v1/shard/leases", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Peer string `json:"peer"`
		}
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody)).Decode(&req); err != nil {
			httpError(w, http.StatusBadRequest, codeBadRequest, fmt.Errorf("decode acquire request: %w", err))
			return
		}
		grant, err := m.AcquireLease(req.Peer)
		if err != nil {
			if errors.Is(err, ErrNoWork) {
				httpError(w, http.StatusNotFound, codeNoWork, err)
				return
			}
			httpError(w, http.StatusBadRequest, codeBadRequest, err)
			return
		}
		writeJSON(w, http.StatusOK, grant)
	})
	mux.HandleFunc("POST /v1/shard/leases/renew", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			JobID   string `json:"job_id"`
			LeaseID string `json:"lease_id"`
			Epoch   int64  `json:"epoch"`
		}
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody)).Decode(&req); err != nil {
			httpError(w, http.StatusBadRequest, codeBadRequest, fmt.Errorf("decode renew request: %w", err))
			return
		}
		if err := m.RenewLease(req.JobID, req.LeaseID, req.Epoch); err != nil {
			if errors.Is(err, ErrStaleLease) {
				httpError(w, http.StatusConflict, codeStaleLease, err)
				return
			}
			httpError(w, http.StatusBadRequest, codeBadRequest, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
	})
	mux.HandleFunc("POST /v1/shard/leases/return", func(w http.ResponseWriter, r *http.Request) {
		var ret LeaseReturn
		if err := json.NewDecoder(r.Body).Decode(&ret); err != nil {
			httpError(w, http.StatusBadRequest, codeBadRequest, fmt.Errorf("decode lease return: %w", err))
			return
		}
		if err := m.ReturnLease(&ret); err != nil {
			if errors.Is(err, ErrStaleLease) {
				httpError(w, http.StatusConflict, codeStaleLease, err)
				return
			}
			httpError(w, http.StatusBadRequest, codeBadRequest, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
	})
	return mux
}

// streamEvents writes the job's telemetry stream as NDJSON: each line is
// one complete compass/telemetry/v1 snapshot (the same schema statcheck
// validates), flushed per event. The stream ends when the job reaches a
// terminal state or the client disconnects.
func streamEvents(w http.ResponseWriter, r *http.Request, j *Job) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	flusher, _ := w.(http.Flusher)
	events, cancel := j.Subscribe()
	defer cancel()
	enc := json.NewEncoder(w)
	write := func(snap telemetry.Snapshot) bool {
		if err := enc.Encode(snap); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	for {
		select {
		case snap, ok := <-events:
			if !ok {
				return
			}
			if !write(snap) {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// httpError writes the uniform error envelope {"error", "code"}.
func httpError(w http.ResponseWriter, status int, code string, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error(), "code": code})
}
