// Command clustersmoke is the end-to-end cluster gate: it spawns three real
// querylearnd processes on loopback ports, drives crowd dialogues through a
// NON-owner node (so the 307 routing and the SDK's route cache are on the
// hot path), SIGKILLs the owner mid-dialogue, and asserts a survivor takes
// the sessions over with every acknowledged answer intact.
//
// Usage:
//
//	clustersmoke -bin ./bin/querylearnd [-timeout 90s]
//
// It exits 0 on success and 1 with the daemons' stderr on any failure —
// `make cluster-smoke` wires it into CI.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"querylearn/internal/loadgen"
	"querylearn/pkg/api"
	"querylearn/pkg/client"
)

type proc struct {
	id     string
	addr   string
	base   string
	dir    string
	cmd    *exec.Cmd
	stderr bytes.Buffer
	dead   bool
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "clustersmoke: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("clustersmoke: PASS")
}

func run() error {
	bin := flag.String("bin", "", "path to a built querylearnd binary (required)")
	timeout := flag.Duration("timeout", 90*time.Second, "overall deadline")
	flag.Parse()
	if *bin == "" {
		return fmt.Errorf("-bin is required (build one: go build -o bin/querylearnd ./cmd/querylearnd)")
	}
	deadline := time.Now().Add(*timeout)

	// Warm the binary before the timed spawn loop: the FIRST exec of a
	// freshly linked binary pages it in from disk and can take whole
	// seconds, which would skew the first daemon's boot against its
	// peers' failure detectors.
	exec.Command(*bin, "-h").Run()

	// Three loopback ports; the listen-then-close gap is an acceptable race
	// for a smoke that owns the machine it runs on.
	procs := make([]*proc, 3)
	var peerSpecs []string
	for i := range procs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		addr := ln.Addr().String()
		ln.Close()
		dir, err := os.MkdirTemp("", "clustersmoke-*")
		if err != nil {
			return err
		}
		id := fmt.Sprintf("n%d", i+1)
		procs[i] = &proc{id: id, addr: addr, base: "http://" + addr, dir: dir}
		peerSpecs = append(peerSpecs, id+"="+addr)
	}
	peers := strings.Join(peerSpecs, ",")
	defer func() {
		for _, p := range procs {
			if p.cmd != nil && p.cmd.Process != nil && !p.dead {
				p.cmd.Process.Kill()
				p.cmd.Wait()
			}
			os.RemoveAll(p.dir)
		}
	}()
	// An interrupted run must not leak three daemons bound to loopback ports.
	sigC := make(chan os.Signal, 1)
	signal.Notify(sigC, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigC
		for _, p := range procs {
			if p.cmd != nil && p.cmd.Process != nil {
				p.cmd.Process.Kill()
			}
		}
		os.Exit(1)
	}()

	for _, p := range procs {
		p.cmd = exec.Command(*bin,
			"-addr", p.addr,
			"-data-dir", p.dir,
			"-fsync", "off",
			"-cluster-node", p.id,
			"-cluster-peers", peers,
			"-cluster-probe-interval", "100ms",
			"-cluster-fail-after", "3",
		)
		p.cmd.Stderr = &p.stderr
		p.cmd.Stdout = &p.stderr
		if err := p.cmd.Start(); err != nil {
			return fmt.Errorf("starting %s: %w", p.id, err)
		}
	}
	for _, p := range procs {
		if err := waitHealthy(p.base, deadline); err != nil {
			return fmt.Errorf("%s never became healthy: %w\n--- %s stderr ---\n%s",
				p.id, err, p.id, p.stderr.String())
		}
	}
	// Do not drive traffic until every node sees every peer alive: an
	// answer sent before the mesh forms waits on the replication barrier
	// for a follower that may still be booting.
	if err := waitMesh(procs, deadline); err != nil {
		var logs strings.Builder
		for _, p := range procs {
			fmt.Fprintf(&logs, "--- %s stderr ---\n%s\n", p.id, p.stderr.String())
		}
		return fmt.Errorf("cluster mesh never formed: %w\n%s", err, logs.String())
	}

	owner, nonOwner := procs[0], procs[1]
	fail := func(format string, args ...any) error {
		return fmt.Errorf(format+"\n--- %s stderr ---\n%s\n--- %s stderr ---\n%s",
			append(args, owner.id, owner.stderr.String(), nonOwner.id, nonOwner.stderr.String())...)
	}

	ws, err := loadgen.Builtin()
	if err != nil {
		return err
	}
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()

	// Sessions are minted (and therefore owned) by the node that creates
	// them; every subsequent call goes through a NON-owner so the dialogue
	// rides the 307 + route-cache path.
	sdkOwner := client.New(owner.base)
	sdkVia := client.New(nonOwner.base, client.WithRetry(4, 50*time.Millisecond))

	// Warm-up: two full dialogues end to end through the non-owner.
	for i := 0; i < 2; i++ {
		w := ws[i%len(ws)]
		created, err := sdkOwner.Create(ctx, api.CreateRequest{Model: w.Model, Task: w.Task})
		if err != nil {
			return fail("create dialogue %d: %v", i, err)
		}
		if _, err := converge(ctx, sdkVia, created.ID, w, deadline); err != nil {
			return fail("dialogue %d via non-owner: %v", i, err)
		}
		if err := sdkVia.Delete(ctx, created.ID); err != nil {
			return fail("delete dialogue %d: %v", i, err)
		}
	}

	// The takeover dialogue: answer one question, then SIGKILL the owner
	// mid-dialogue and finish it through whoever survives.
	w := ws[0]
	created, err := sdkOwner.Create(ctx, api.CreateRequest{Model: w.Model, Task: w.Task})
	if err != nil {
		return fail("create takeover dialogue: %v", err)
	}
	q, ok, err := question(ctx, sdkVia, created.ID, deadline)
	if err != nil || !ok {
		return fail("first question (ok=%v): %v", ok, err)
	}
	acked, err := answer(ctx, sdkVia, created.ID, w, q)
	if err != nil {
		return fail("first answer: %v", err)
	}

	owner.dead = true
	if err := owner.cmd.Process.Kill(); err != nil {
		return fmt.Errorf("SIGKILL %s: %v", owner.id, err)
	}
	owner.cmd.Wait()

	// Finish the dialogue through the survivors; the first calls race the
	// failure detector, so retry until the takeover lands.
	if _, err := converge(ctx, sdkVia, created.ID, w, deadline); err != nil {
		return fail("dialogue after owner kill: %v", err)
	}

	// A survivor must report the owner fenced, and the adopted session must
	// still carry every pre-kill acknowledged answer.
	if err := waitFenced(nonOwner.base, owner.id, deadline); err != nil {
		return fail("survivor never fenced %s: %v", owner.id, err)
	}
	st, err := sdkVia.Status(ctx, created.ID)
	if err != nil {
		return fail("status on survivor: %v", err)
	}
	if st.HITs < acked {
		return fail("acknowledged answers lost in takeover: HITs %d < acked %d before the kill", st.HITs, acked)
	}
	fmt.Printf("clustersmoke: owner %s killed mid-dialogue; survivors finished session %s with %d HITs (%d acked pre-kill)\n",
		owner.id, created.ID, st.HITs, acked)
	return nil
}

func waitHealthy(base string, deadline time.Time) error {
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			if err != nil {
				return err
			}
			return fmt.Errorf("deadline waiting for /healthz")
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// peerStates fetches one node's /healthz cluster block as peerID -> state.
func peerStates(base string) (map[string]string, error) {
	var h struct {
		Cluster *struct {
			Peers []struct {
				ID    string `json:"id"`
				State string `json:"state"`
			} `json:"peers"`
		} `json:"cluster"`
	}
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return nil, err
	}
	if h.Cluster == nil {
		return nil, fmt.Errorf("no cluster block in /healthz")
	}
	states := make(map[string]string, len(h.Cluster.Peers))
	for _, p := range h.Cluster.Peers {
		states[p.ID] = p.State
	}
	return states, nil
}

// waitMesh blocks until every node's failure detector has marked every
// other peer alive — the point at which an acknowledged answer is
// guaranteed to have a follower holding its replica.
func waitMesh(procs []*proc, deadline time.Time) error {
	for {
		formed := true
		var gap string
		for _, p := range procs {
			states, err := peerStates(p.base)
			if err != nil {
				formed, gap = false, fmt.Sprintf("%s: %v", p.id, err)
				break
			}
			for _, other := range procs {
				if other.id == p.id {
					continue
				}
				if states[other.id] != "alive" {
					formed, gap = false, fmt.Sprintf("%s sees %s as %q", p.id, other.id, states[other.id])
					break
				}
			}
			if !formed {
				break
			}
		}
		if formed {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("deadline: %s", gap)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// waitFenced polls a survivor's /healthz until the killed peer shows as
// fenced in the cluster block.
func waitFenced(base, peerID string, deadline time.Time) error {
	for {
		states, err := peerStates(base)
		if err == nil && states[peerID] == "fenced" {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("deadline waiting for %s to be fenced", peerID)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// question fetches the next informative item, retrying through the SDK while
// the cluster reroutes around a dead owner. ok=false means converged.
func question(ctx context.Context, sdk *client.Client, id string, deadline time.Time) (api.Question, bool, error) {
	for {
		q, ok, err := sdk.Question(ctx, id)
		if err == nil {
			return q, ok, nil
		}
		if time.Now().After(deadline) {
			return api.Question{}, false, err
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// answer labels one item with the workload's oracle in ONE logical SDK call
// (the SDK holds one Idempotency-Key across its internal retries) and
// returns the cumulative HITs the server acknowledged.
func answer(ctx context.Context, sdk *client.Client, id string, w loadgen.Workload, q api.Question) (int, error) {
	pos, err := w.Oracle(q.Item)
	if err != nil {
		return 0, err
	}
	res, err := sdk.Answers(ctx, id, []api.Answer{{Item: q.Item, Positive: pos}}, api.ReconcileNone)
	return res.HITs, err
}

// converge drives the dialogue until the model has no more questions,
// returning the last acknowledged cumulative HIT count. A failed answer is
// NOT blindly re-posted: the loop re-fetches the question, so an answer
// that landed but lost its response is never labeled twice.
func converge(ctx context.Context, sdk *client.Client, id string, w loadgen.Workload, deadline time.Time) (int, error) {
	hits := 0
	for step := 0; step < 400; step++ {
		q, ok, err := question(ctx, sdk, id, deadline)
		if err != nil {
			return hits, err
		}
		if !ok {
			return hits, nil
		}
		h, err := answer(ctx, sdk, id, w, q)
		if err != nil {
			if time.Now().After(deadline) {
				return hits, err
			}
			time.Sleep(100 * time.Millisecond)
			continue
		}
		hits = h
	}
	return hits, fmt.Errorf("dialogue %s did not converge in 400 steps", id)
}
