package main

import (
	"fmt"

	"unbundle/internal/core"
	"unbundle/internal/flightrec"
	"unbundle/internal/govern"
	"unbundle/internal/keyspace"
	"unbundle/internal/metrics"
	"unbundle/internal/mvcc"
	"unbundle/internal/remote"
)

// idleBudget is the governor budget every run attaches: far above anything a
// workload holds, so the governor charges but never leaves Steady.
const idleBudget = 1 << 40

// stack is the system under test: an MVCC store whose CDC feeds a hub, and
// for remote workloads a v4 TCP server over the hub and store with two
// loopback clients. Every run attaches a private metrics registry, a flight
// recorder and an idle governor, and leaves the tracer off.
type stack struct {
	reg *metrics.Registry
	rec *flightrec.Recorder
	gov *govern.Governor

	store     *mvcc.Store
	hub       *core.Hub
	watchable core.Watchable   // what local watches and the server watch
	snap      core.Snapshotter // what the server and local cold starts read
	closeHub  func()

	srv     *remote.Server
	clients []*remote.Client

	tr   *tracer
	shim *watchShim // traced runs only
}

func buildStack(wl *workload, tr *tracer) (*stack, error) {
	s := &stack{reg: metrics.NewRegistry(), tr: tr}
	s.rec = flightrec.New(flightrec.Config{Metrics: s.reg})
	s.gov = govern.NewGovernor(govern.Config{Budget: idleBudget, Metrics: s.reg, Recorder: s.rec})
	cfg := core.HubConfig{Metrics: s.reg, Recorder: s.rec, Governor: s.gov}
	if tr == nil {
		ws := mvcc.NewWatchableStore(cfg)
		s.store, s.hub, s.watchable, s.snap, s.closeHub = ws.Store, ws.Hub(), ws, ws, ws.Close
	} else {
		s.store = mvcc.NewStore()
		s.hub = core.NewHub(cfg)
		detach := s.store.AttachCDC(keyspace.Full(), &ingestShim{inner: s.hub, t: tr})
		s.shim = newWatchShim(s.hub, tr)
		s.watchable, s.snap = s.shim, &snapShim{inner: s.store, t: tr}
		s.closeHub = func() { detach(); s.hub.Close() }
	}
	if !wl.remote {
		return s, nil
	}
	srv, err := remote.ServeWith("127.0.0.1:0", s.watchable, s.snap, remote.ServerConfig{
		Metrics: s.reg, Recorder: s.rec, Governor: s.gov,
	})
	if err != nil {
		s.close()
		return nil, fmt.Errorf("serve: %w", err)
	}
	s.srv = srv
	for i := 0; i < 2; i++ {
		c, err := remote.DialWith(srv.Addr(), remote.ClientConfig{Metrics: s.reg, Recorder: s.rec})
		if err != nil {
			s.close()
			return nil, fmt.Errorf("dial: %w", err)
		}
		s.clients = append(s.clients, c)
	}
	return s, nil
}

// catchupSource returns the Watchable and Snapshotter catch-up cycler i
// uses: its connection's client for remote workloads, the local hub and
// store otherwise.
func (s *stack) catchupSource(i int) (core.Watchable, core.Snapshotter) {
	if s.clients == nil {
		return s.watchable, s.snap
	}
	c := s.clients[i%len(s.clients)]
	if s.tr != nil {
		return c, &clientSnapShim{inner: c, t: s.tr}
	}
	return c, c
}

// liveSource returns the Watchable live watch i registers with.
func (s *stack) liveSource(i int) core.Watchable {
	if s.clients == nil {
		return s.watchable
	}
	return s.clients[i%len(s.clients)]
}

func (s *stack) close() {
	for _, c := range s.clients {
		c.Close()
	}
	if s.srv != nil {
		s.srv.Close()
	}
	if s.closeHub != nil {
		s.closeHub()
	}
	s.gov.Close()
}
