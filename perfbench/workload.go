package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"querylearn/internal/loadgen"
	"querylearn/internal/obs"
	"querylearn/internal/session"
	"querylearn/pkg/api"
)

// workload is one traffic mix. Every workload runs the same parts — set-up
// (inputs, goals, stack, resident sessions, warm-up), then cycles of a
// dialogue stretch of closed-loop crowd workers and a restart stretch of
// cold recoveries of the journal set-up wrote — so every metric has a value
// on every workload; what differs is which layer does the work.
type workload struct {
	nodes int
	// large serves the learner-bound instances instead of the fixtures.
	large bool
	// residents is the resident population of mid-dialogue sessions set-up
	// writes through the Manager (the open HITs of a crowd service).
	residents int
	// ladderShares is how many shares per client the traced run traces and
	// replays on the layer ladder, after the untraced cycles.
	ladderShares int
	// setups is how many times a run sets up; setup_s is their median.
	// crowd-mix's set-up, 6000 journaled creates, varies most from one
	// set-up to the next and is cheap, so it is done more often.
	setups int
	why    string
}

var workloads = map[string]workload{
	"crowd-mix": {nodes: 1, residents: 6000, ladderShares: 200, setups: 5,
		why: "fixture dialogues over a large resident journal: client, server, session, codec and journal overhead set the dialogue numbers, decode and replay set recover_s"},
	"learn-large": {nodes: 2, large: true, residents: 8, ladderShares: 2, setups: 3,
		why: "large seeded instances on a two-node cluster: the learners' evaluation cores do most of the work, behind 307s, journal shipping and the replication barrier"},
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// cycles is how many dialogue-then-restart stretches the measured time is
// cut into, and dialogueShare the share of each cycle the dialogues get.
const (
	cycles        = 8
	dialogueShare = 0.8
)

type result struct {
	// metrics are the end-to-end metrics, layers the per-layer ones (traced
	// runs only).
	metrics   map[string]metric
	layers    map[string]metric
	attempted int64
	failed    int64
	problems  []string
	notes     []string
}

func (r *result) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) setLayer(name string, v float64, unit string) {
	r.layers[name] = metric{Value: v, Unit: unit}
}

// check counts one correctness check, and a failure when err is not nil.
func (r *result) check(what string, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.problems = append(r.problems, fmt.Sprintf("%s: %v", what, err))
	}
}

// env is one set-up stack.
type env struct {
	dir       string
	nodes     []*node
	tpls      []template
	conns     *http.Transport
	tp        *transport
	clients   []*crowdClient
	acked     int64 // labels acknowledged to the benchmark so far
	pristine  string
	written   []session.Snapshot
	setupTime time.Duration
	// heldMB is the heap the stack holds at the end of set-up beyond what
	// the benchmark held before starting it (see liveHeap).
	heldMB float64
}

func (e *env) teardown() {
	if e.conns != nil {
		e.conns.CloseIdleConnections()
	}
	for _, nd := range e.nodes {
		nd.shutdown()
	}
	os.RemoveAll(e.dir)
}

func setup(cfg config, w workload, dir string, tr *tracer) (*env, error) {
	start := time.Now()
	e := &env{dir: dir, pristine: filepath.Join(dir, "pristine", journalName)}
	var err error
	if w.large {
		sz := fullSize
		if cfg.toy {
			sz = toySize
		}
		e.tpls, err = largeTemplates(cfg.seed, sz)
	} else {
		e.tpls, err = fixtureTemplates()
	}
	if err != nil {
		return nil, err
	}
	// The heap readings bracket the stack: the inputs, oracles and goals are
	// the benchmark's and are already held here, and the snapshots the
	// benchmark copies from the stack are taken after the second reading.
	// The collections are not set-up work, so their time is left out.
	before, paused := liveHeap()
	if e.nodes, err = startNodes(filepath.Join(dir, "nodes"), w.nodes, tr); err != nil {
		return nil, err
	}
	residents := w.residents
	if cfg.toy {
		residents = max(residents/20, len(e.tpls))
	}
	if e.acked, err = seedResidents(e.nodes, e.tpls, residents); err != nil {
		e.teardown()
		return nil, err
	}
	e.conns = &http.Transport{MaxIdleConnsPerHost: 16}
	e.tp = &transport{base: e.conns, tr: tr}
	e.clients = newClients(cfg.clients, cfg.seed, e.nodes, e.tp)
	warm := warmUp(e.clients, e.tpls)
	if warm.failed != 0 {
		e.teardown()
		return nil, fmt.Errorf("warm-up failed: %s", strings.Join(warm.problems, "; "))
	}
	e.acked += warm.labels
	if err := pristineJournal(e.nodes[0], e.pristine); err != nil {
		e.teardown()
		return nil, err
	}
	held, paused2 := liveHeap()
	e.heldMB = (float64(held) - float64(before)) / 1e6
	paused += paused2
	if e.written, err = liveSnapshots(e.nodes[0].mgr); err != nil {
		e.teardown()
		return nil, err
	}
	e.setupTime = time.Since(start) - paused
	return e, nil
}

// liveHeap collects garbage and returns the heap in use, and how long that
// took.
func liveHeap() (uint64, time.Duration) {
	start := time.Now()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc, time.Since(start)
}

// storeTotals sums the nodes' journal counters.
func storeTotals(nodes []*node) (bytes, appended, fsyncs int64) {
	for _, nd := range nodes {
		s := nd.st.Stats()
		bytes += s.Bytes
		appended += s.Appended
		fsyncs += s.Fsyncs
	}
	return
}

func runWorkload(cfg config, log io.Writer) (*result, error) {
	w := workloads[cfg.workload]
	root := filepath.Join(cfg.workDir, fmt.Sprintf("%s-%d-%d", cfg.workload, cfg.seed, os.Getpid()))
	defer os.RemoveAll(root)
	res := &result{metrics: map[string]metric{}, layers: map[string]metric{}}
	var tr *tracer
	if cfg.trace == 1 {
		tr = newTracer()
	}

	// Set-up, several times: all but the last are torn down at once, and
	// dropped before the next starts so its heap readings do not hold them.
	var e *env
	setupSecs := make([]float64, 0, w.setups)
	heldMB := make([]float64, 0, w.setups)
	for i := 0; i < w.setups; i++ {
		if e != nil {
			e.teardown()
			e = nil
		}
		runtime.GC()
		var err error
		e, err = setup(cfg, w, filepath.Join(root, fmt.Sprintf("setup%d", i)), tr)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupSecs = append(setupSecs, e.setupTime.Seconds())
		heldMB = append(heldMB, e.heldMB)
	}
	defer e.teardown()

	// The measured time: cycles of a dialogue stretch followed by a restart
	// stretch of cold recoveries of the pristine journal (the serving nodes
	// idle meanwhile). The machine's speed drifts during a run; interleaving
	// makes both stretches sample all of it, and every figure is a median
	// over the cycles or over the recoveries.
	total := time.Duration(cfg.seconds * float64(time.Second))
	dialogueTime := time.Duration(float64(total) * dialogueShare / cycles)
	restartTime := total/cycles - dialogueTime
	bytes0, _, _ := storeTotals(e.nodes)
	refused0 := e.tp.refused.Load()
	d := newTally()
	var perCycle []*tally
	var recs []recovery
	for c := 0; c < cycles; c++ {
		ct := runPhase(e.clients, e.tpls, time.Now().Add(dialogueTime), 0, 0)
		perCycle = append(perCycle, ct)
		d.merge(ct)
		deadline := time.Now().Add(restartTime)
		for first := true; first || time.Now().Before(deadline); first = false {
			r, err := recoverOnce(e.pristine, filepath.Join(root, "recover"), e.written)
			res.check("recovery", err)
			if err != nil {
				break
			}
			recs = append(recs, r)
		}
	}
	bytes1, _, _ := storeTotals(e.nodes)
	var layers *layerRun
	var err error
	if tr != nil {
		if layers, err = tracedStretch(e, w, tr, overCycles(perCycle, (*tally).dialoguesPerSecond)); err != nil {
			return nil, err
		}
	}
	phases := []*tally{d}
	if layers != nil {
		phases = append(phases, layers.traced)
	}
	for _, p := range phases {
		e.acked += p.labels
		res.attempted += p.attempted
		res.failed += p.failed
		res.problems = append(res.problems, p.problems...)
	}
	res.failed += e.tp.refused.Load() - refused0

	// Correctness after the dialogues.
	var labels int64
	for _, nd := range e.nodes {
		labels += nd.mgr.Stats().Labels
	}
	res.check("acknowledged labels", func() error {
		if labels != e.acked {
			return fmt.Errorf("the benchmark was acknowledged %d labels, the managers counted %d", e.acked, labels)
		}
		return nil
	}())
	if w.nodes > 1 {
		res.check("cluster", clusterAudit(e))
	}

	res.set("setup_s", median(setupSecs), "s")
	res.set("dialogues_per_s", overCycles(perCycle, (*tally).dialoguesPerSecond), "1/s")
	res.set("create_p50_ms", overCycles(perCycle, opStat(opCreate, templateP50)), "ms")
	res.set("question_p50_ms", overCycles(perCycle, opStat(opQuestions, templateP50)), "ms")
	res.set("answer_p50_ms", overCycles(perCycle, opStat(opAnswers, templateP50)), "ms")
	res.set("answer_p90_ms", overCycles(perCycle, opStat(opAnswers, p90)), "ms")
	res.set("questions_per_dialogue", float64(d.labels)/float64(max(d.dialogues, 1)), "count")
	res.set("recover_s", median(recoverySeconds(recs, true, true)), "s")
	res.set("journal_bytes_per_answer", float64(bytes1-bytes0)/float64(max(d.labels, 1)), "B")
	res.set("live_heap_mb", median(heldMB), "MB")
	res.set("succeeded_share", 1-float64(res.failed)/float64(max(res.attempted, 1)), "ratio")
	res.notes = append(res.notes,
		fmt.Sprintf("%s: %s", cfg.workload, w.why),
		fmt.Sprintf("%d answers POSTs and %d dialogues in %d cycles of %.3fs; %d recoveries of %d resident sessions; setups %v",
			len(latencies(d.samples, opAnswers)), d.dialogues, cycles, d.elapsed.Seconds()/cycles, len(recs), len(e.written), setupSecs))
	if tr != nil {
		layers.finish(res, recs)
		if err := tr.dump(filepath.Join(cfg.spanDir, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))); err != nil {
			fmt.Fprintf(log, "perfbench: span dump: %v\n", err)
		}
	}
	return res, nil
}

func recoverySeconds(recs []recovery, open, recover bool) []float64 {
	out := make([]float64, len(recs))
	for i, r := range recs {
		var d time.Duration
		if open {
			d += r.open
		}
		if recover {
			d += r.recover
		}
		out[i] = d.Seconds()
	}
	return out
}

// clusterAudit checks the replication contract: no answer was released
// before its follower acknowledged it, and after the first node dies the
// second holds every session the first had acknowledged, answer for
// answer. Before the kill the first node acknowledges one more answer
// batch on a fresh dialogue per template, so the audit also covers answers
// acknowledged a moment before the crash.
func clusterAudit(e *env) error {
	var timeouts int64
	for _, nd := range e.nodes {
		timeouts += nd.clu.Stats().AckTimeouts
	}
	if timeouts != 0 {
		return fmt.Errorf("%d replication acks timed out", timeouts)
	}
	n1, n2 := e.nodes[0], e.nodes[1]
	sdk := e.clients[0].sdks[0] // pinned to n1, which mints ids it owns
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, tp := range e.tpls {
		created, err := sdk.Create(ctx, api.CreateRequest{Model: tp.model, Task: tp.task})
		if err != nil {
			return err
		}
		qs, err := sdk.Questions(ctx, created.ID, tp.batch)
		if err != nil || len(qs) == 0 {
			return fmt.Errorf("audit dialogue %s: %d questions, %v", tp.name, len(qs), err)
		}
		answers, err := tp.label(qs)
		if err != nil {
			return err
		}
		if _, err := sdk.Answers(ctx, created.ID, answers, api.ReconcileNone); err != nil {
			return err
		}
	}
	want, err := liveSnapshots(n1.mgr)
	if err != nil {
		return err
	}
	// The adopted-sessions counter moves only once adoption has finished.
	before := n2.clu.Stats().AdoptedSessions
	n1.kill()
	deadline := time.Now().Add(10 * time.Second)
	for n2.clu.Stats().AdoptedSessions == before {
		if time.Now().After(deadline) {
			return fmt.Errorf("the surviving node did not take over within 10s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	got, err := liveSnapshots(n2.mgr)
	if err != nil {
		return err
	}
	return diffSnapshots(want, got)
}

// layerRun carries the traced stretch into the per-layer metrics.
type layerRun struct {
	e           *env
	untracedDPS float64
	traced      *tally
	tracedDPS   float64
	ladder      *ladder
	byRID       map[string][]*span
	storeDelta  [3]int64 // bytes, appended, fsyncs
	shed        float64
	requests    float64
	redirects   int64
	shipped     int64
	phases      map[string]obs.HistogramSnapshot
	ladderErr   error
}

// tracedStretch runs, after the measured cycles, a traced stretch of
// ladderShares shares per worker whose spans, counters and recorded
// dialogues feed the per-layer metrics. The cycles' dialogue rate is the
// baseline of trace.overhead_share.
func tracedStretch(e *env, w workload, tr *tracer, untracedDPS float64) (*layerRun, error) {
	lr := &layerRun{e: e, untracedDPS: untracedDPS}

	shed0, req0, err := scrapeCounters(e.nodes)
	if err != nil {
		return nil, err
	}
	phases0 := phaseSnapshots(e.nodes)
	b0, a0, f0 := storeTotals(e.nodes)
	red0, ship0 := clusterCounters(e.nodes)
	tr.on.Store(true)
	t := runPhase(e.clients, e.tpls, time.Now().Add(time.Hour), w.ladderShares, w.ladderShares)
	tr.on.Store(false)
	b1, a1, f1 := storeTotals(e.nodes)
	red1, ship1 := clusterCounters(e.nodes)
	phases1 := phaseSnapshots(e.nodes)
	shed1, req1, err := scrapeCounters(e.nodes)
	if err != nil {
		return nil, err
	}
	lr.traced = t
	lr.tracedDPS = t.dialoguesPerSecond()
	lr.storeDelta = [3]int64{b1 - b0, a1 - a0, f1 - f0}
	lr.shed, lr.requests = shed1-shed0, req1-req0
	lr.redirects, lr.shipped = red1-red0, ship1-ship0
	lr.phases = map[string]obs.HistogramSnapshot{}
	for name, s1 := range phases1 {
		lr.phases[name] = subtract(s1, phases0[name])
	}
	lr.byRID = tr.link()
	lr.ladder, lr.ladderErr = replayLadder(t.traced)

	return lr, nil
}

// scrapeCounters reads every node's Prometheus exposition: requests shed
// by admission control and requests routed, summed over nodes.
func scrapeCounters(nodes []*node) (shed, requests float64, err error) {
	hc := &http.Client{Timeout: 10 * time.Second}
	for _, nd := range nodes {
		exp, err := loadgen.Scrape(nd.base, hc)
		if err != nil {
			return 0, 0, err
		}
		shed += exp.SumByName("querylearn_http_shed_total")
		requests += exp.SumByName("querylearn_http_requests_total")
	}
	return shed, requests, nil
}

func clusterCounters(nodes []*node) (redirects, shippedBytes int64) {
	for _, nd := range nodes {
		if nd.clu == nil {
			continue
		}
		s := nd.clu.Stats()
		redirects += s.Redirects
		for _, p := range s.Peers {
			shippedBytes += p.ShippedBytes
		}
	}
	return
}

// phaseSnapshots reads the production phase histogram
// (querylearn_phase_seconds) of every node, merged by phase.
func phaseSnapshots(nodes []*node) map[string]obs.HistogramSnapshot {
	out := map[string]obs.HistogramSnapshot{}
	for _, nd := range nodes {
		vec := nd.srv.Obs().HistogramVec("querylearn_phase_seconds", "per-request phase durations from the span trace", "phase")
		vec.Each(func(labels []string, snap obs.HistogramSnapshot) {
			cur := out[labels[0]]
			cur.Merge(snap)
			out[labels[0]] = cur
		})
	}
	return out
}

func subtract(a, b obs.HistogramSnapshot) obs.HistogramSnapshot {
	for i := range a.Counts {
		a.Counts[i] -= b.Counts[i]
	}
	a.Count -= b.Count
	a.SumSeconds -= b.SumSeconds
	return a
}
