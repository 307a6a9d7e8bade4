package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"querylearn/pkg/api"
	"querylearn/pkg/client"
)

// opKind is one operation of a dialogue, as the crowd issues it.
type opKind uint8

const (
	opCreate opKind = iota
	opQuestions
	opAnswers
	opHypothesis
	opDelete
)

var opNames = [...]string{"create", "questions", "answers", "hypothesis", "delete"}

func (k opKind) String() string { return opNames[k] }

// opRec is one recorded SDK call of a traced dialogue: what the ladder
// replays, and the live request it is compared with.
type opRec struct {
	kind    opKind
	answers []api.Answer
	rid     string
	sdkNS   int64
}

// dialogueRec is one traced dialogue, replayable against the layers alone.
type dialogueRec struct {
	tpl *template
	ops []opRec
}

// crowdClient is one closed-loop crowd worker: it waits for every reply
// before its next request. sdks[0] is the node the worker is pinned to; on a
// cluster sdks[1] is the other node, where every other dialogue is created
// so that the pinned SDK reaches it through a 307.
type crowdClient struct {
	rng  *rand.Rand
	sdks []*client.Client
	tr   *tracer
}

// sample is one successful SDK call, packed small: a run keeps hundreds of
// thousands of them inside the process it measures, and a bigger record
// would change how often the collector runs under the server.
type sample struct {
	ms  float32
	op  opKind
	tpl uint8 // index into the workload's templates
}

// tally is the measurements of one stretch of crowd work.
type tally struct {
	elapsed   time.Duration
	samples   []sample
	dialogues int64
	labels    int64
	attempted int64
	failed    int64
	problems  []string
	traced    []dialogueRec
}

func newTally() *tally { return &tally{} }

func (t *tally) problem(format string, args ...any) {
	t.failed++
	if len(t.problems) < 20 {
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
}

func (t *tally) merge(o *tally) {
	t.elapsed += o.elapsed
	t.samples = append(t.samples, o.samples...)
	t.dialogues += o.dialogues
	t.labels += o.labels
	t.attempted += o.attempted
	t.failed += o.failed
	t.problems = append(t.problems, o.problems...)
	t.traced = append(t.traced, o.traced...)
}

// dialoguesPerSecond is the crowd's throughput over the stretch.
func (t *tally) dialoguesPerSecond() float64 {
	if t.elapsed <= 0 {
		return 0
	}
	return float64(t.dialogues) / t.elapsed.Seconds()
}

// newClients builds n crowd workers over the nodes' base URLs. All SDKs
// share one counting (and, when traced, span-recording) transport.
func newClients(n int, seed int64, nodes []*node, tp *transport) []*crowdClient {
	hc := &http.Client{Transport: tp, Timeout: 60 * time.Second}
	out := make([]*crowdClient, n)
	for i := range out {
		c := &crowdClient{rng: rand.New(rand.NewSource(seed*1000 + int64(i))), tr: tp.tr}
		for j := range nodes {
			nd := nodes[(i+j)%len(nodes)]
			c.sdks = append(c.sdks, client.New(nd.base, client.WithHTTPClient(hc)))
		}
		out[i] = c
	}
	return out
}

// warmUp runs every template once through every node on every client, so
// every node's journal has interned every template's task and questions
// before anything is measured, and the journal grows by the same bytes per
// share from then on.
func warmUp(clients []*crowdClient, tpls []template) *tally {
	tallies := make([]*tally, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		tallies[i] = newTally()
		wg.Add(1)
		go func(c *crowdClient, t *tally) {
			defer wg.Done()
			for via := range c.sdks {
				for ti := range tpls {
					c.dialogue(tpls, ti, via, t, false)
				}
			}
		}(c, tallies[i])
	}
	wg.Wait()
	total := newTally()
	for _, t := range tallies {
		total.merge(t)
	}
	return total
}

// runPhase runs every client's closed loop until deadline, one share at a
// time: a share is the workload's templates in a seeded order, and a client
// only stops between shares, so every count per dialogue is over whole
// shares and repeats exactly for a seed. recordShares > 0 records the first
// that many shares of each client for the ladder replay.
func runPhase(clients []*crowdClient, tpls []template, deadline time.Time, maxShares, recordShares int) *tally {
	start := time.Now()
	tallies := make([]*tally, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		tallies[i] = newTally()
		wg.Add(1)
		go func(c *crowdClient, t *tally) {
			defer wg.Done()
			for share := 0; (maxShares == 0 || share < maxShares) && time.Now().Before(deadline); share++ {
				for j, ti := range c.rng.Perm(len(tpls)) {
					c.dialogue(tpls, ti, j%len(c.sdks), t, share < recordShares)
				}
			}
		}(c, tallies[i])
	}
	wg.Wait()
	total := newTally()
	total.elapsed = time.Since(start)
	for _, t := range tallies {
		total.merge(t)
	}
	return total
}

// dialogue runs one full dialogue — create, questions and answers until
// converged, hypothesis checked against the goal, delete — creating the
// session through sdks[via] and driving it through sdks[0].
func (c *crowdClient) dialogue(tpls []template, ti, via int, t *tally, record bool) {
	tp := &tpls[ti]
	var rec *dialogueRec
	if record {
		rec = &dialogueRec{tpl: tp}
	}
	call := func(kind opKind, op func(ctx context.Context) error) error {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		tag := &opTag{}
		ctx = withOpTag(ctx, tag)
		t.attempted++
		start := time.Now()
		err := op(ctx)
		end := time.Now()
		d := end.Sub(start)
		if c.tr.active() {
			c.tr.add(layerSDK, kind.String(), tag.rid, start, end, 0)
		}
		if err != nil {
			t.problem("%s %s: %v", tp.name, kind, err)
			return err
		}
		t.samples = append(t.samples, sample{ms: float32(d.Seconds() * 1e3), op: kind, tpl: uint8(ti)})
		if rec != nil {
			rec.ops = append(rec.ops, opRec{kind: kind, rid: tag.rid, sdkNS: d.Nanoseconds()})
		}
		return nil
	}
	var id string
	if call(opCreate, func(ctx context.Context) error {
		created, err := c.sdks[via].Create(ctx, api.CreateRequest{Model: tp.model, Task: tp.task})
		id = created.ID
		return err
	}) != nil {
		return
	}
	cleanup := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		c.sdks[0].Delete(ctx, id)
	}
	for {
		var qs []api.Question
		if call(opQuestions, func(ctx context.Context) error {
			var err error
			qs, err = c.sdks[0].Questions(ctx, id, tp.batch)
			return err
		}) != nil {
			cleanup()
			return
		}
		if len(qs) == 0 {
			break
		}
		answers, err := tp.label(qs)
		if err != nil {
			t.problem("%v", err)
			cleanup()
			return
		}
		if call(opAnswers, func(ctx context.Context) error {
			_, err := c.sdks[0].Answers(ctx, id, answers, api.ReconcileNone)
			return err
		}) != nil {
			cleanup()
			return
		}
		t.labels += int64(len(answers))
		if rec != nil {
			rec.ops[len(rec.ops)-1].answers = answers
		}
	}
	var hyp api.Hypothesis
	if call(opHypothesis, func(ctx context.Context) error {
		var err error
		hyp, err = c.sdks[0].Hypothesis(ctx, id)
		return err
	}) != nil {
		cleanup()
		return
	}
	if !hyp.Converged || hyp.Query != tp.goal {
		t.problem("%s: hypothesis %q (converged=%v) does not match the goal %q", tp.name, hyp.Query, hyp.Converged, tp.goal)
	}
	if call(opDelete, func(ctx context.Context) error { return c.sdks[0].Delete(ctx, id) }) != nil {
		return
	}
	t.dialogues++
	if rec != nil {
		t.traced = append(t.traced, *rec)
	}
}
