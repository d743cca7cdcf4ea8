package coord

import (
	"encoding/json"
	"errors"
	"net/http"

	"chipletnet/internal/dse"
)

// The coordinator protocol: three POST endpoints riding the daemon's
// HTTP+JSON surface. Heartbeat doubles as registration and lease
// assignment; work hands over a leased shard's remaining evaluations;
// delta folds finished records back. Every message names the worker and
// (past heartbeat) the campaign/shard/lease triple, so stale senders are
// fenced by token comparison rather than connection state.

// Assignment names one leased shard.
type Assignment struct {
	Campaign string
	Shard    int
	Lease    int
}

// WorkItem is one pending evaluation, shipped without Params (they are
// campaign-wide and travel once per work response).
type WorkItem struct {
	Key       string
	Cert      string `json:",omitempty"`
	Candidate dse.Candidate
}

// DeltaRecord is one finished evaluation in a delta batch. Simulated
// distinguishes fresh simulation from a worker-local cache hit, so the
// campaign's simulation ledger stays honest across redeliveries.
type DeltaRecord struct {
	Record    dse.Record
	Simulated bool
}

type heartbeatRequest struct {
	Worker string
	// Capacity is the total number of leases the worker is willing to
	// hold (renewals included).
	Capacity int
	// Held echoes the assignments the worker is still working on
	// (queued or evaluating). Renewal is echo-driven: only echoed
	// leases are extended, so a shard the worker abandoned stops being
	// renewed the moment it drops out of this list and expires by TTL
	// — a healthy heartbeat alone cannot pin an abandoned shard.
	Held []Assignment `json:",omitempty"`
}

type heartbeatResponse struct {
	// TTLMS is the lease TTL; workers beat at least three times within it.
	TTLMS int64
	// Assignments lists the renewed leases plus any fresh grants.
	Assignments []Assignment
}

type workRequest struct {
	Worker   string
	Campaign string
	Shard    int
	Lease    int
}

type workResponse struct {
	Revoked bool
	Params  dse.Params `json:",omitempty"`
	Items   []WorkItem `json:",omitempty"`
}

type deltaRequest struct {
	Worker   string
	Campaign string
	Shard    int
	Lease    int
	Records  []DeltaRecord
}

type deltaResponse struct {
	Revoked bool
	Added   int
}

// Register mounts the coordinator protocol on mux under /coord/.
func (c *Coordinator) Register(mux *http.ServeMux) {
	mux.HandleFunc("POST /coord/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("POST /coord/work", c.handleWork)
	mux.HandleFunc("POST /coord/delta", c.handleDelta)
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req heartbeatRequest
	if !decode(w, r, &req) {
		return
	}
	if req.Worker == "" {
		http.Error(w, "coord: heartbeat without worker ID", http.StatusBadRequest)
		return
	}
	if req.Capacity <= 0 {
		req.Capacity = 1
	}
	reply(w, heartbeatResponse{
		TTLMS:       c.cfg.HeartbeatTTL.Milliseconds(),
		Assignments: c.heartbeat(req.Worker, req.Capacity, req.Held),
	})
}

func (c *Coordinator) handleWork(w http.ResponseWriter, r *http.Request) {
	var req workRequest
	if !decode(w, r, &req) {
		return
	}
	params, items, revoked := c.work(req.Worker, req.Campaign, req.Shard, req.Lease)
	reply(w, workResponse{Revoked: revoked, Params: params, Items: items})
}

func (c *Coordinator) handleDelta(w http.ResponseWriter, r *http.Request) {
	var req deltaRequest
	if !decode(w, r, &req) {
		return
	}
	added, revoked, err := c.fold(req.Worker, req.Campaign, req.Shard, req.Lease, req.Records)
	switch {
	case errors.Is(err, dse.ErrConflict):
		// Conflict is terminal, not transient: 409 tells the worker to
		// stop resending rather than retry into the same wall.
		http.Error(w, err.Error(), http.StatusConflict)
	case err != nil:
		http.Error(w, err.Error(), http.StatusBadRequest)
	default:
		reply(w, deltaResponse{Revoked: revoked, Added: added})
	}
}

func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		http.Error(w, "coord: bad request body: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

func reply(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
