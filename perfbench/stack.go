package main

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"time"

	"querylearn/internal/cluster"
	"querylearn/internal/obs"
	"querylearn/internal/server"
	"querylearn/internal/session"
	"querylearn/internal/store"
)

// The serving configuration is querylearnd's serve mode at its flag
// defaults: journal on with batched fsync, 16 manager shards, the default
// session caps and path limits, admission control at 64 in-flight requests
// per shard, the 64 MiB body cap and the 500ms slow-request log. The TTL
// sweep (every minute) and periodic compaction (every five minutes) never
// fire within a run, so the benchmark does not start them.
const (
	fsyncMode   = store.FsyncBatched
	maxSessions = 10000
	maxInflight = 64
	maxBody     = 64 << 20
)

func managerConfig(j session.Journal) session.Config {
	return session.Config{Shards: 16, MaxSessions: maxSessions, TTL: 30 * time.Minute, Journal: j}
}

// clusterConfig uses the fast failure-detection timings of the cluster
// experiment (T18) and the cluster integration tests.
func clusterConfig(id string, peers []cluster.Peer, st *store.Store, reg *obs.Registry) cluster.Config {
	return cluster.Config{
		NodeID: id, Peers: peers, Store: st,
		ProbeInterval: 25 * time.Millisecond,
		ProbeTimeout:  250 * time.Millisecond,
		FailAfter:     3,
		AckTimeout:    2 * time.Second,
		ShipWait:      200 * time.Millisecond,
		BootGrace:     250 * time.Millisecond,
		MaxBodyBytes:  maxBody,
		Obs:           reg,
	}
}

// node is one in-process querylearnd: journal, manager, server, optional
// cluster layer, and a loopback listener.
type node struct {
	id   string
	dir  string
	base string
	st   *store.Store
	mgr  *session.Manager
	srv  *server.Server
	clu  *cluster.Cluster
	hs   *http.Server

	stopProbe context.CancelFunc
	probeDone <-chan struct{}
	closed    bool
}

// startNodes boots n nodes under dir; n > 1 forms a cluster over loopback.
// tr (nil when untraced) wraps each node's journal and handlers.
func startNodes(dir string, n int, tr *tracer) ([]*node, error) {
	lns := make([]net.Listener, n)
	peers := make([]cluster.Peer, n)
	closeListeners := func() {
		for _, ln := range lns {
			if ln != nil {
				ln.Close()
			}
		}
	}
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeListeners()
			return nil, err
		}
		lns[i] = ln
		peers[i] = cluster.Peer{ID: fmt.Sprintf("n%d", i+1), Addr: ln.Addr().String()}
	}
	nodes := make([]*node, 0, n)
	for i := range lns {
		nd, err := startNode(fmt.Sprintf("%s/%s", dir, peers[i].ID), peers[i].ID, lns[i], peers, tr)
		if err != nil {
			for _, started := range nodes {
				started.shutdown()
			}
			closeListeners()
			return nil, err
		}
		nodes = append(nodes, nd)
	}
	if n > 1 {
		if err := awaitMesh(nodes, 10*time.Second); err != nil {
			for _, nd := range nodes {
				nd.shutdown()
			}
			return nil, err
		}
	}
	return nodes, nil
}

func startNode(dir, id string, ln net.Listener, peers []cluster.Peer, tr *tracer) (*node, error) {
	reg := obs.NewRegistry()
	st, snaps, err := store.Open(dir, store.Options{Fsync: fsyncMode, Obs: reg})
	if err != nil {
		return nil, err
	}
	nd := &node{id: id, dir: dir, base: "http://" + ln.Addr().String(), st: st}
	var journal session.Journal = st
	if tr != nil {
		journal = &tracedJournal{st: st, tr: tr}
	}
	cfg := managerConfig(journal)
	if len(peers) > 1 {
		c, err := cluster.New(clusterConfig(id, peers, st, reg))
		if err != nil {
			st.Close()
			return nil, err
		}
		nd.clu = c
		cfg.NewID = c.MintSessionID
	}
	nd.mgr = session.NewManager(cfg)
	if _, err := nd.mgr.Recover(snaps); err != nil {
		st.Close()
		return nil, err
	}
	opts := []server.Option{
		server.WithMaxBodyBytes(maxBody),
		server.WithObs(reg),
		server.WithStore(st.Stats),
		server.WithAdmission(maxInflight, cfg.Shards),
		server.WithSlowRequestLog(slog.New(slog.NewJSONHandler(os.Stderr, nil)), 500*time.Millisecond, 1),
	}
	if nd.clu != nil {
		opts = append(opts, server.WithCluster(nd.clu.Stats))
	}
	nd.srv = server.New(nd.mgr, opts...)
	handler := tr.wrapHandler(layerServer, nd.srv.Handler())
	if nd.clu != nil {
		handler = tr.wrapHandler(layerRouter, nd.clu.Router(handler))
		nd.clu.Start(nd.mgr)
	}
	ctx, cancel := context.WithCancel(context.Background())
	nd.stopProbe = cancel
	nd.probeDone = nd.mgr.StartJournalProbe(ctx, time.Second, 30*time.Second)
	nd.hs = &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	go nd.hs.Serve(ln)
	return nd, nil
}

// awaitMesh waits until every node has probed every peer alive: before
// that the replication barrier has no one to wait for.
func awaitMesh(nodes []*node, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		alive := true
		for _, nd := range nodes {
			for _, p := range nd.clu.Stats().Peers {
				if p.State != "self" && p.State != "alive" {
					alive = false
				}
			}
		}
		if alive {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster peers not alive after %s", timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stopServing stops the listener, the cluster loops and the journal probe,
// leaving the store open.
func (nd *node) stopServing() {
	nd.hs.Close()
	if nd.clu != nil {
		nd.clu.Stop()
	}
	nd.stopProbe()
	<-nd.probeDone
}

// shutdown stops the node and closes its journal, once.
func (nd *node) shutdown() error {
	if nd.closed {
		return nil
	}
	nd.closed = true
	nd.stopServing()
	return nd.st.Close()
}

// kill models a SIGKILL: connections drop and nothing is flushed.
func (nd *node) kill() {
	if nd.closed {
		return
	}
	nd.closed = true
	nd.stopServing()
	nd.st.Abandon()
}

// liveSnapshots captures every live session of a manager, sorted by id.
func liveSnapshots(mgr *session.Manager) ([]session.Snapshot, error) {
	var out []session.Snapshot
	after := ""
	for {
		page, next := mgr.List(1000, after)
		for _, st := range page {
			s, err := mgr.Get(st.ID)
			if err != nil {
				return nil, err
			}
			out = append(out, s.Snapshot())
		}
		if next == "" {
			return out, nil
		}
		after = next
	}
}
