package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"vesta/internal/cloud"
	"vesta/internal/core"
	"vesta/internal/oracle"
	"vesta/internal/replicate"
	"vesta/internal/serve"
	"vesta/internal/sim"
	"vesta/internal/wal"
	"vesta/internal/workload"
)

// trainSnapshot builds the offline knowledge exactly as `vesta profile` does
// (seed 1, the 120-type catalog, the source-training workloads profiled by
// the ground-truth meter) and returns the epoch-0 snapshot `vesta serve`
// serves from it.
func trainSnapshot() (*core.Snapshot, error) {
	sys, err := core.New(core.Config{Seed: 1}, cloud.Catalog120())
	if err != nil {
		return nil, err
	}
	meter := oracle.NewMeter(sim.New(sim.DefaultConfig()), 1)
	if err := sys.TrainOffline(workload.BySet(workload.SourceTraining), meter); err != nil {
		return nil, err
	}
	return sys.Snapshot()
}

// serveConfig returns `vesta serve`'s default knobs: queue 256, batch 16,
// response cache 1024, a 4-node measurement simulator, one worker per CPU.
func serveConfig(base *core.Snapshot) serve.Config {
	return serve.Config{
		QueueSize:  256,
		BatchSize:  16,
		CacheSize:  1024,
		SimConfig:  sim.Config{Nodes: 4},
		DecodeBase: base,
	}
}

// fleet is the deployment the CLI builds, in one process: a durable
// replication leader, a long-polling read-only follower, and a router over
// both, each behind its own loopback HTTP listener.
type fleet struct {
	stateDir string
	mgr      *wal.Manager
	leader   *replicate.Leader
	lsrv     *serve.Server
	fsrv     *serve.Server
	follower *replicate.Follower
	router   *replicate.Router

	leaderURL, routerURL string

	servers []*http.Server
	cancel  context.CancelFunc
	wg      sync.WaitGroup
}

// newFleet brings a fleet up from the epoch-0 snapshot base and returns once
// the router has probed both nodes healthy. With a non-nil tracer the
// layers' public seams are wrapped with span recorders (see trace.go); the
// deployment is otherwise identical. On error everything already started is
// torn down.
func newFleet(base *core.Snapshot, tr *tracer, meterSpans bool) (f *fleet, err error) {
	f = &fleet{}
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	defer func() {
		if err != nil {
			f.close()
			f = nil
		}
	}()

	f.stateDir, err = os.MkdirTemp("", "perf-wal-")
	if err != nil {
		return nil, fmt.Errorf("state dir: %w", err)
	}
	mgr, snap, err := wal.Open(base, wal.Config{Dir: f.stateDir})
	if err != nil {
		return nil, err
	}
	f.mgr = mgr
	var inner serve.WriteAheadLog = mgr
	if tr != nil {
		inner = &timedWAL{Manager: mgr, tr: tr}
	}
	f.leader, err = replicate.NewLeader(snap, inner, replicate.LeaderConfig{MaxWait: 25 * time.Second})
	if err != nil {
		return nil, err
	}
	lcfg := serveConfig(base)
	lcfg.WAL = f.leader
	if tr != nil {
		lcfg.WAL = &timedLeader{Leader: f.leader, tr: tr}
		if meterSpans {
			lcfg.MeterFor = tr.meterFor(sim.New(lcfg.SimConfig))
		}
	}
	f.lsrv, err = serve.New(snap, lcfg)
	if err != nil {
		return nil, err
	}
	f.lsrv.SetReplicationStats(func() any { return f.leader.LeaderStats() })
	lmux := http.NewServeMux()
	lmux.Handle("/replicate/", f.leader.Handler())
	lmux.Handle("/", tr.wrapHandler(f.lsrv.Handler()))
	if f.leaderURL, err = f.listen(lmux); err != nil {
		return nil, err
	}

	fcfg := serveConfig(base)
	fcfg.ReadOnly = true
	f.fsrv, err = serve.New(base, fcfg)
	if err != nil {
		return nil, err
	}
	var transport replicate.Transport = &replicate.HTTPTransport{URL: f.leaderURL}
	if tr != nil {
		transport = &lagTransport{inner: &replicate.HTTPTransport{URL: f.leaderURL}, tr: tr}
	}
	f.follower, err = replicate.NewFollower(f.fsrv, base, transport, nil)
	if err != nil {
		return nil, err
	}
	f.fsrv.SetReplicationStats(func() any { return f.follower.Stats() })
	followerURL, err := f.listen(tr.wrapHandler(f.fsrv.Handler()))
	if err != nil {
		return nil, err
	}
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		if err := f.follower.RunWait(ctx, 25*time.Second, 500*time.Millisecond); err != nil {
			fmt.Fprintf(os.Stderr, "perf: follower diverged: %v\n", err)
		}
	}()

	rcfg := replicate.RouterConfig{
		Backends:     []string{f.leaderURL, followerURL},
		Vnodes:       64,
		Retries:      2,
		Seed:         1,
		ProbeTimeout: 5 * time.Second,
	}
	if tr != nil {
		rcfg.Client = propagatingClient()
	}
	f.router, err = replicate.NewRouter(rcfg)
	if err != nil {
		return nil, err
	}
	if healthy := f.router.ProbeAll(); healthy != 2 {
		return nil, fmt.Errorf("router probed %d of 2 nodes healthy", healthy)
	}
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		f.router.Run(ctx, time.Second)
	}()
	if f.routerURL, err = f.listen(tr.wrapRouter(f.router.Handler())); err != nil {
		return nil, err
	}
	return f, nil
}

// listen serves h on a fresh loopback port with `vesta serve`'s production
// timeouts and returns its base URL.
func (f *fleet) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      90 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	f.servers = append(f.servers, srv)
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "perf: listener: %v\n", err)
		}
	}()
	return "http://" + ln.Addr().String(), nil
}

// close stops the follower and prober, closes every listener and server,
// waits for all of the fleet's goroutines, and removes the WAL state
// directory. Safe on a partially built fleet.
func (f *fleet) close() {
	f.cancel()
	for _, srv := range f.servers {
		srv.Close()
	}
	f.wg.Wait()
	if f.lsrv != nil {
		f.lsrv.Close()
	}
	if f.fsrv != nil {
		f.fsrv.Close()
	}
	if f.mgr != nil {
		f.mgr.Close()
	}
	if f.stateDir != "" {
		os.RemoveAll(f.stateDir)
	}
	if t, ok := http.DefaultTransport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
}

// counters is a point-in-time view of every layer's own Stats; deltas of two
// views give the per-layer counts of a window.
type counters struct {
	leader, follower serve.Stats
	router           replicate.RouterStats
	ship             replicate.LeaderStats
	follow           replicate.FollowerStats
	wal              wal.Stats
}

func (f *fleet) counters() counters {
	return counters{
		leader:   f.lsrv.Stats(),
		follower: f.fsrv.Stats(),
		router:   f.router.Stats(),
		ship:     f.leader.LeaderStats(),
		follow:   f.follower.Stats(),
		wal:      f.mgr.Stats(),
	}
}

// converge waits until the follower has applied everything the leader
// acked, or the timeout passes.
func (f *fleet) converge(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		if f.fsrv.Snapshot().Epoch() == f.lsrv.Snapshot().Epoch() {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
}
