// Command chipletd is the crash-safe campaign daemon: a long-running
// HTTP+JSON service that accepts simulate, sweep and design-space
// exploration jobs, runs each once on a bounded worker pool with per-job
// deadlines, and survives kill -9 without losing or duplicating work.
//
// All state lives under -dir:
//
//	jobs.jsonl    append-only, fsynced job journal (the queue included)
//	cache/        sharded content-addressed evaluation cache (16 JSONL
//	              shards by key prefix; mergeable across machines with
//	              chipletdse -merge)
//	checkpoints/  periodic snapshots of long simulate jobs
//
// On SIGTERM/SIGINT the daemon drains gracefully: intake stops (/readyz
// turns 503), in-flight simulate jobs snapshot a checkpoint, DSE jobs
// finish their current chunk of candidates, everything interrupted is
// durably requeued, and the process exits 0. On SIGKILL the same
// journal+cache machinery replays at the next start: journaled-done work
// is never redone, interrupted work resumes from its checkpoint or cache.
//
// API (see internal/service):
//
//	GET  /healthz            liveness
//	GET  /readyz             readiness (503 while draining)
//	POST /jobs               submit {"Type":"simulate"|"sweep"|"dse", ...}
//	GET  /jobs               all jobs, submission order
//	GET  /jobs/{id}          one job's structured status
//	POST /jobs/{id}/cancel   cancel a queued or running job
//
// Fleet mode (see internal/service/coord): `-coordinator` makes this
// daemon partition DSE jobs by cache shard and lease the shards to
// workers; `-worker -join <url>` makes it heartbeat into a coordinator
// and evaluate leased shards into its local cache. Leases are journaled
// (coord.jsonl), heartbeat loss reassigns work to survivors, and the
// merged frontier is byte-identical to a single-machine run.
//
// Example:
//
//	chipletd -dir /var/lib/chipletd -addr :8080 -workers 4
//	curl -s localhost:8080/jobs -d '{"Type":"dse","Space":{"Chiplets":[4]}}'
//
// Multi-host:
//
//	hostA$ chipletd -dir stateA -addr :8080 -coordinator
//	hostB$ chipletd -dir stateB -addr :8081 -worker -join http://hostA:8080
//	hostC$ chipletd -dir stateC -addr :8081 -worker -join http://hostA:8080
//	hostA$ curl -s localhost:8080/jobs -d '{"Type":"dse", ...}'
//
// Exit status: 0 on clean shutdown (including drain), 1 on startup or
// serve errors.
package main

import (
	"context"
	"errors"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"chipletnet/cmd/internal/cli"
	"chipletnet/internal/service"
	"chipletnet/internal/service/backoff"
	"chipletnet/internal/service/coord"
)

func main() { os.Exit(run(os.Args[1:])) }

// run is main without os.Exit, so tests drive the daemon in-process or
// as a helper child.
func run(args []string) int {
	fs := cli.New("chipletd")
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
	dir := fs.String("dir", "chipletd-state", "state directory (job journal, sharded evaluation cache, checkpoints)")
	workers := fs.Int("workers", 1, "concurrent jobs")
	jobTimeout := fs.Duration("job-timeout", 0, "default per-job wall-clock deadline (0 = none; jobs may override)")
	backoffBase := fs.Duration("backoff-base", 100*time.Millisecond, "first delay of the coordinator's lease reassignment and the worker's request retries (doubles per retry)")
	backoffCap := fs.Duration("backoff-cap", 5*time.Second, "upper bound on the lease-reassignment and worker request-retry delay")
	ckptEvery := fs.Int64("checkpoint-every", 2000, "snapshot simulate jobs every N cycles")
	fs.Engine()
	coordinator := fs.Bool("coordinator", false, "serve the fleet coordinator: distribute DSE jobs across joined workers")
	workerMode := fs.Bool("worker", false, "join a coordinator as a worker (requires -join)")
	join := fs.String("join", "", "coordinator base URL to join (http://host:port)")
	workerID := fs.String("worker-id", "", "worker: fleet-unique ID (default: hostname/listen-address)")
	heartbeat := fs.Duration("heartbeat", time.Second, "worker heartbeat interval (at most; a worker beats at a third of the coordinator's TTL when that is shorter)")
	heartbeatTTL := fs.Duration("heartbeat-ttl", 10*time.Second, "coordinator: lease/liveness TTL after a worker's last heartbeat")
	grace := fs.Duration("grace", time.Minute, "coordinator: how long a campaign survives a fully-dead fleet before degrading")
	if fs.Parse(args) != nil {
		return 1
	}
	logger := log.New(os.Stderr, "chipletd: ", 0)
	if *coordinator && *workerMode {
		logger.Printf("-coordinator and -worker are mutually exclusive")
		return 1
	}
	if *workerMode && *join == "" {
		logger.Printf("-worker requires -join <coordinator URL>")
		return 1
	}

	var co *coord.Coordinator
	if *coordinator {
		var err error
		co, err = coord.Open(coord.Config{
			Dir:            *dir,
			HeartbeatTTL:   *heartbeatTTL,
			DeadFleetGrace: *grace,
			Reassign:       backoff.Policy{Base: *backoffBase, Cap: *backoffCap, Jitter: 0.5},
			Logf:           logger.Printf,
		})
		if err != nil {
			logger.Printf("coordinator: %v", err)
			return 1
		}
	}

	srv, err := service.Open(service.Config{
		Dir:             *dir,
		Workers:         *workers,
		JobTimeout:      *jobTimeout,
		CheckpointEvery: *ckptEvery,
		Coordinator:     co,
		Logf:            logger.Printf,
	})
	if err != nil {
		logger.Printf("open: %v", err)
		if co != nil {
			co.Close()
		}
		return 1
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Printf("listen: %v", err)
		srv.Close()
		return 1
	}
	// The resolved address line is the startup handshake: supervisors
	// (and the kill-resume test) parse it to find a port-0 listener.
	logger.Printf("listening on %s", ln.Addr())

	httpSrv := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	// In worker mode the daemon moonlights: it still serves its own job
	// API, and a background loop evaluates shards leased from the
	// coordinator into the local sharded cache (which doubles as the
	// worker-side hit source). The worker ID must be fleet-unique — the
	// coordinator keys leases, heartbeats and fold counters by it, and
	// two workers sharing an ID collapse into one identity that
	// double-simulates every shard. The listen address alone is not
	// unique across hosts (-addr :8081 binds as [::]:8081 everywhere),
	// so the default prefixes the hostname; -worker-id overrides.
	workerCtx, stopWorker := context.WithCancel(context.Background())
	workerDone := make(chan struct{})
	if *workerMode {
		id := *workerID
		if id == "" {
			if host, herr := os.Hostname(); herr == nil && host != "" {
				id = host + "/" + ln.Addr().String()
			} else {
				id = ln.Addr().String()
				logger.Printf("worker: cannot resolve hostname (%v); using %s as worker ID — pass -worker-id to guarantee fleet-wide uniqueness", herr, id)
			}
		}
		logger.Printf("worker %s joining %s", id, *join)
		go func() {
			defer close(workerDone)
			coord.RunWorker(workerCtx, coord.WorkerConfig{
				ID:        id,
				Join:      *join,
				Cache:     srv.Cache(),
				Heartbeat: *heartbeat,
				Backoff:   backoff.Policy{Base: *backoffBase, Cap: *backoffCap, Jitter: 0.5},
				Logf:      logger.Printf,
			})
		}()
	} else {
		close(workerDone)
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)

	code := 0
	select {
	case sig := <-sigCh:
		logger.Printf("%v: draining (in-flight jobs checkpoint and requeue)", sig)
		httpSrv.Close()
		<-serveErr
	case err := <-serveErr:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Printf("serve: %v", err)
			code = 1
		}
	}
	stopWorker()
	<-workerDone
	srv.Drain()
	if err := srv.Close(); err != nil {
		logger.Printf("close: %v", err)
		code = 1
	}
	if co != nil {
		if err := co.Close(); err != nil {
			logger.Printf("coordinator close: %v", err)
			code = 1
		}
	}
	logger.Printf("drained; state persisted under %s", *dir)
	return code
}
