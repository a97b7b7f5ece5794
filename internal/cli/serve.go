package cli

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"vesta/internal/cloud"
	"vesta/internal/core"
	"vesta/internal/replicate"
	"vesta/internal/serve"
	"vesta/internal/sim"
	"vesta/internal/wal"
)

// serveListen starts the HTTP server; swapped out by tests so cmdServe can
// be exercised without binding a real port.
var serveListen = func(srv *http.Server) error { return srv.ListenAndServe() }

// drainTimeout bounds how long a signalled shutdown waits for in-flight
// HTTP requests before closing connections.
const drainTimeout = 30 * time.Second

// cmdServe loads a knowledge file and serves predictions over HTTP/JSON.
// Responses are byte-identical for a given (snapshot, request) at every
// -workers value and cache state. With -state-dir the absorbed serving state
// is durable (DESIGN.md §11): startup recovers base + checkpoint + WAL, and
// SIGINT/SIGTERM drain in-flight requests through the ErrShuttingDown path,
// then write a final checkpoint instead of dying mid-request.
func cmdServe(f *Factory, args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	fs.SetOutput(f.Err)
	knowledgeFile := fs.String("knowledge", "knowledge.json", "knowledge file from 'vesta profile'")
	addr := fs.String("addr", "127.0.0.1:8372", "listen address")
	seed := fs.Uint64("seed", 1, "snapshot seed (drives the online rng of every prediction)")
	workers := fs.Int("workers", 0, "number of workers computing uncached predictions (0 = one per CPU); responses are identical at every value")
	queue := fs.Int("queue", 256, "admission queue capacity (full queue answers 503 with Retry-After)")
	shedThreshold := fs.Float64("shed-threshold", 0, "shed best-effort requests (priority >= 1) once queue occupancy reaches this fraction of -queue (0 disables)")
	cacheSize := fs.Int("cache", 1024, "LRU response cache entries (0 = default, use -no-cache to disable)")
	noCache := fs.Bool("no-cache", false, "disable the response cache")
	cold := fs.Bool("cold", false, "serve through the historical cold CMF solve instead of the precomputed-plan fast path")
	approx := fs.Bool("approx", false, "approximate mode: freeze source factors, fit only the target row (cheaper, small accuracy tradeoff; ignored with -cold)")
	profileCache := fs.Int("profile-cache", 0, "memoized-measurement LRU entries (0 = default 4096, negative disables memoization)")
	nodes := fs.Int("nodes", 4, "cluster size of the per-request measurement simulator")
	stateDir := fs.String("state-dir", "", "durable state directory (WAL + checkpoints); empty serves in-memory only")
	multicloud := fs.Bool("multicloud", false, "select across all provider catalogs (EC2+Azure+GCP, 215 types); rankings project the trained knowledge onto the wider catalog")
	replicateFlag := fs.Bool("replicate", false, "run as replication leader: mount GET /replicate/* so followers can sync (DESIGN.md §13)")
	follow := fs.String("follow", "", "run as read-only follower replaying this leader URL (e.g. http://127.0.0.1:8372)")
	syncInterval := fs.Duration("sync-interval", 500*time.Millisecond, "follower retry interval after an error or pause; with -long-poll 0 also the poll period (used with -follow)")
	longPoll := fs.Duration("long-poll", 25*time.Second, "push-style frame streaming: followers park a GET /replicate/frames?wait=D this long and the leader releases them on append, cutting follower lag from the poll interval to ~RTT; 0 falls back to -sync-interval polling. As leader, also the server-side cap on client wait budgets")
	rolloutCtl := fs.Bool("rollout", false, "mount the POST /rollout/{stage,commit,revert} + GET /rollout/status control plane so a 'vesta rollout' coordinator can drive staged upgrades of this node")
	tracePath := fs.String("trace", "", "write deterministic trace records to this JSONL file on shutdown")
	verbose := fs.Bool("v", false, "stream verbose progress (trace spans, wall timings) to stderr")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *follow != "" && *replicateFlag {
		return fmt.Errorf("serve: -follow and -replicate are mutually exclusive (a follower never owns absorbs)")
	}
	if *follow != "" && *stateDir != "" {
		return fmt.Errorf("serve: -follow and -state-dir are mutually exclusive (durability lives at the leader; a restarted follower re-syncs)")
	}
	tracer := f.Tracer(*tracePath, *verbose)
	catalog := cloud.Catalog120()
	if *multicloud {
		catalog = cloud.MultiCloud()
	}
	sys, err := core.New(core.Config{Seed: *seed, Workers: *workers, Tracer: tracer}, catalog)
	if err != nil {
		return err
	}
	kf, err := f.Open(*knowledgeFile)
	if err != nil {
		return err
	}
	defer kf.Close()
	if err := sys.LoadKnowledge(kf); err != nil {
		return err
	}
	snap, err := sys.Snapshot()
	if err != nil {
		return err
	}
	// The epoch-0 knowledge snapshot is the decode basis for rollout
	// candidates and replicated frames, even after WAL recovery replaces the
	// served snapshot below.
	baseSnap := snap

	var mgr *wal.Manager
	var durable serve.WriteAheadLog
	if *stateDir != "" {
		mgr, snap, err = wal.Open(snap, wal.Config{Dir: *stateDir, Tracer: tracer})
		if err != nil {
			return err
		}
		defer mgr.Close()
		durable = mgr
		st := mgr.Stats()
		fmt.Fprintf(f.Out, "durable state %s: recovered epoch %d (%d replayed", *stateDir, st.Epoch, st.Replayed)
		if st.TornTailBytes > 0 {
			fmt.Fprintf(f.Out, ", %d-byte torn tail truncated", st.TornTailBytes)
		}
		if st.Quarantined > 0 {
			fmt.Fprintf(f.Out, ", %d checkpoint quarantined", st.Quarantined)
		}
		fmt.Fprintf(f.Out, ")\n")
	}

	// Leader mode interposes the replication tail between the serve layer and
	// the durable WAL: absorbs stay durable (inner append first), and the
	// acked records become the follower stream.
	var leader *replicate.Leader
	if *replicateFlag {
		leader, err = replicate.NewLeader(snap, durable, replicate.LeaderConfig{Tracer: tracer, MaxWait: *longPoll})
		if err != nil {
			return err
		}
		durable = leader
	}

	server, err := serve.New(snap, serve.Config{
		Workers:          *workers,
		QueueSize:        *queue,
		ShedThreshold:    *shedThreshold,
		CacheSize:        *cacheSize,
		NoCache:          *noCache,
		ColdStart:        *cold,
		Approx:           *approx,
		ProfileCacheSize: *profileCache,
		SimConfig:        sim.Config{Nodes: *nodes},
		Tracer:           tracer,
		WAL:              durable,
		ReadOnly:         *follow != "",
		RolloutControl:   *rolloutCtl,
		DecodeBase:       baseSnap,
	})
	if err != nil {
		return err
	}
	defer server.Close() // idempotent; covers the early-error returns below
	if leader != nil {
		// Leader-side replication counters (waiters parked in long polls,
		// ack/horizon) surface on /stats and /healthz.
		server.SetReplicationStats(func() any { return leader.LeaderStats() })
	}
	fmt.Fprintf(f.Out, "serving knowledge from %s (epoch %d, %d workloads) on http://%s\n",
		*knowledgeFile, snap.Epoch(), snap.Workloads(), *addr)
	handler := server.Handler()
	switch {
	case leader != nil:
		m := http.NewServeMux()
		m.Handle("/replicate/", leader.Handler())
		m.Handle("/", handler)
		handler = m
		fmt.Fprintf(f.Out, "endpoints: POST /predict, POST /absorb, POST+GET /catalog, GET /healthz, GET /stats, GET /replicate/{frames,status}\n")
		fmt.Fprintf(f.Out, "replication leader: followers sync with 'vesta serve -follow http://%s'\n", *addr)
	case *follow != "":
		fmt.Fprintf(f.Out, "endpoints: POST /predict, GET /catalog, GET /healthz, GET /stats (read-only: POST /absorb and POST /catalog answer 403)\n")
		fmt.Fprintf(f.Out, "following %s every %s\n", *follow, *syncInterval)
	default:
		fmt.Fprintf(f.Out, "endpoints: POST /predict, POST /absorb, POST+GET /catalog, GET /healthz, GET /stats\n")
	}
	if *rolloutCtl {
		fmt.Fprintf(f.Out, "rollout control: POST /rollout/{stage,commit,revert}, GET /rollout/status (drive with 'vesta rollout')\n")
	}
	// Production timeouts: slow-loris reads are cut at 30s, responses must
	// flush within 90s (above the 60s in-handler predict deadline, so the
	// handler's 504 wins over a connection drop), idle keep-alives die at 2m.
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      90 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	// Trap SIGINT/SIGTERM: stop accepting connections, drain in-flight
	// requests, then fall through to the queue drain + final checkpoint
	// below — the process never dies mid-request or mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *follow != "" {
		follower, err := replicate.NewFollower(server, snap, &replicate.HTTPTransport{URL: *follow}, tracer)
		if err != nil {
			return err
		}
		// The follower's sync counters (transient fetch failures, frames
		// applied, rollout pauses) surface on this node's own /stats and
		// /healthz, so routers and operators see replication health without
		// reaching the leader.
		server.SetReplicationStats(func() any { return follower.Stats() })
		go func() {
			// RunWait returns only on ctx done (nil) or terminal divergence;
			// a diverged follower keeps serving its last verified snapshot
			// but stops advancing, and the operator rebuilds it. With
			// -long-poll 0 it degrades to -sync-interval polling.
			if err := follower.RunWait(ctx, *longPoll, *syncInterval); err != nil {
				fmt.Fprintf(f.Err, "vesta: follower diverged: %v\n", err)
			}
		}()
	}
	listenErr := make(chan error, 1)
	go func() { listenErr <- f.ServeListen(httpSrv) }()
	select {
	case <-ctx.Done():
		stop() // restore default handling: a second signal kills immediately
		fmt.Fprintf(f.Out, "signal received; draining...\n")
		drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		err = httpSrv.Shutdown(drainCtx)
		cancel()
		if lerr := <-listenErr; lerr != nil && lerr != http.ErrServerClosed && err == nil {
			err = lerr
		}
		if err != nil {
			return err
		}
	case err := <-listenErr:
		if err != nil && err != http.ErrServerClosed {
			return err
		}
	}

	// Drain the admission queue (already-queued predictions complete, new
	// ones get ErrShuttingDown), then persist the final state.
	server.Close()
	if mgr != nil {
		final := server.Snapshot()
		if err := mgr.Checkpoint(final); err != nil {
			return fmt.Errorf("final checkpoint: %w", err)
		}
		fmt.Fprintf(f.Out, "final checkpoint at epoch %d (%d workloads)\n", final.Epoch(), final.Workloads())
	}
	return f.writeTrace(tracer, *tracePath)
}
