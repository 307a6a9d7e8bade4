package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"querylearn/internal/codec"
	"querylearn/internal/obs"
	"querylearn/internal/server"
	"querylearn/internal/session"
	"querylearn/pkg/api"
)

// ladderOp is one recorded operation replayed rung by rung: the learner
// alone, the Manager over it, and the Server's handler over that, each
// without a journal, network or concurrency. The differences between rungs
// are each layer's self time. The Manager rungs run with item interning off:
// a standalone learner decodes every item, and so must the learners under
// the Manager for the difference to be the Manager's own work.
type ladderOp struct {
	model string
	kind  opKind
	rid   string
	sdkNS int64

	learnerNS int64 // everything the learner did for the op
	buildNS   int64 // create: NewLimited
	proposeNS int64 // questions: Propose(k)
	recordNS  int64 // answers: Validate + Record of the batch
	managerNS int64
	handlerNS int64
}

// planTally is one path dialogue's planner work, drained from its learner.
type planTally struct {
	ns         int64
	decisions  int
	earlyStops int
}

type ladder struct {
	ops    []ladderOp
	plans  []planTally
	events []session.Event
}

// recordingJournal keeps the event stream the Manager rung emits: a slice
// append, so the rung stays journal-free in cost.
type recordingJournal struct{ events []session.Event }

func (j *recordingJournal) Append(ev session.Event) error {
	j.events = append(j.events, ev)
	return nil
}

// replayLadder replays the recorded dialogues on the three rungs in
// lockstep — every operation runs on each rung before the next operation,
// in a rotating order — so no rung is measured warmer than another.
func replayLadder(recs []dialogueRec) (*ladder, error) {
	l := &ladder{}
	rj := &recordingJournal{}
	mcfg := managerConfig(rj)
	mcfg.DisableInterning = true
	mgr := session.NewManager(mcfg)
	hcfg := managerConfig(nil)
	hcfg.DisableInterning = true
	h := server.New(session.NewManager(hcfg),
		server.WithMaxBodyBytes(maxBody),
		server.WithObs(obs.NewRegistry()),
		server.WithAdmission(maxInflight, 16),
	).Handler()
	keys := 0
	for _, rec := range recs {
		d := &rungs{tpl: rec.tpl, mgr: mgr, h: h}
		for i, op := range rec.ops {
			keys++
			lo := ladderOp{model: rec.tpl.model, kind: op.kind, rid: op.rid, sdkNS: op.sdkNS}
			steps := []func() error{
				func() error { return d.learnerOp(op, &lo) },
				func() error { return d.managerOp(op, &lo, keys) },
				func() error { return d.handlerOp(op, &lo, keys) },
			}
			for j := range steps {
				if err := steps[(i+j)%len(steps)](); err != nil {
					return nil, fmt.Errorf("%s %s: %w", rec.tpl.name, op.kind, err)
				}
			}
			l.ops = append(l.ops, lo)
		}
		if rec.tpl.model == "path" {
			l.plans = append(l.plans, d.plan)
		}
	}
	l.events = rj.events
	return l, nil
}

// rungs is one dialogue's state on each rung.
type rungs struct {
	tpl     *template
	learner session.Learner
	plan    planTally
	mgr     *session.Manager
	s       *session.Session
	h       http.Handler
	id      string
}

func since(t time.Time) int64 { return time.Since(t).Nanoseconds() }

func (d *rungs) learnerOp(op opRec, lo *ladderOp) error {
	var err error
	start := time.Now()
	switch op.kind {
	case opCreate:
		d.learner, err = session.NewLimited(d.tpl.model, d.tpl.task, session.Limits{})
		lo.buildNS = since(start)
	case opQuestions:
		_, err = d.learner.Propose(d.tpl.batch)
		lo.proposeNS = since(start)
	case opAnswers:
		for _, a := range op.answers {
			if err = d.learner.Validate(a.Item); err != nil {
				break
			}
		}
		for _, a := range op.answers {
			if err == nil {
				err = d.learner.Record(a.Item, a.Positive)
			}
		}
		lo.recordNS = since(start)
		if err == nil {
			// The manager's trailing Propose(1) computes Remaining.
			_, err = d.learner.Propose(1)
		}
	case opHypothesis:
		_, err = d.learner.Hypothesis()
	}
	lo.learnerNS = since(start)
	if pr, ok := d.learner.(session.PlanReporter); ok {
		dur, ds, es := pr.PlanRecorder().Drain()
		d.plan.ns += dur.Nanoseconds()
		d.plan.decisions += len(ds)
		d.plan.earlyStops += es
	}
	return err
}

// managerOp runs the op on the Manager rung. The SDK sends a 32-hex-digit
// idempotency key with every batch; the rung journals one of the same
// length, so the recorded event stream has the live stream's shape.
func (d *rungs) managerOp(op opRec, lo *ladderOp, key int) error {
	var err error
	start := time.Now()
	switch op.kind {
	case opCreate:
		d.s, err = d.mgr.Create(d.tpl.model, d.tpl.task, session.CreateOptions{})
	case opQuestions:
		_, err = d.s.Questions(d.tpl.batch)
	case opAnswers:
		_, _, err = d.s.AnswerIdemTraced(op.answers, api.ReconcileNone, fmt.Sprintf("%032x", key), nil)
	case opHypothesis:
		_, err = d.s.Hypothesis()
	case opDelete:
		err = d.mgr.Delete(d.s.ID())
	}
	lo.managerNS = since(start)
	return err
}

func (d *rungs) handlerOp(op opRec, lo *ladderOp, key int) error {
	var method, path string
	var body any
	switch op.kind {
	case opCreate:
		method, path, body = http.MethodPost, "/v1/sessions", api.CreateRequest{Model: d.tpl.model, Task: d.tpl.task}
	case opQuestions:
		method, path = http.MethodGet, fmt.Sprintf("/v1/sessions/%s/questions?n=%d", d.id, d.tpl.batch)
	case opAnswers:
		method, path = http.MethodPost, "/v1/sessions/"+d.id+"/answers"
		body = api.AnswersRequest{Answers: op.answers, Reconcile: api.ReconcileNone}
	case opHypothesis:
		method, path = http.MethodGet, "/v1/sessions/"+d.id+"/query"
	case opDelete:
		method, path = http.MethodDelete, "/v1/sessions/"+d.id
	}
	var payload []byte
	if body != nil {
		var err error
		if payload, err = json.Marshal(body); err != nil {
			return err
		}
	}
	req := httptest.NewRequest(method, path, bytes.NewReader(payload))
	req.Header.Set(api.RequestIDHeader, op.rid)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(api.IdempotencyKeyHeader, fmt.Sprintf("%032x", key))
	}
	w := httptest.NewRecorder()
	start := time.Now()
	d.h.ServeHTTP(w, req)
	lo.handlerNS = since(start)
	if w.Code/100 != 2 {
		return fmt.Errorf("HTTP %d: %s", w.Code, bytes.TrimSpace(w.Body.Bytes()))
	}
	if op.kind == opCreate {
		var created api.CreateResponse
		if err := json.Unmarshal(w.Body.Bytes(), &created); err != nil {
			return err
		}
		d.id = created.ID
	}
	return nil
}

// codecStats encodes the Manager rung's event stream with a fresh v2
// encoder and decodes it back: per-event encode and decode medians and the
// payload bytes per event (dictionary records included).
func codecStats(events []session.Event) (encodeUS, decodeUS, bytesPerEvent float64, err error) {
	if len(events) == 0 {
		return 0, 0, 0, nil
	}
	enc := codec.NewEncoder()
	type frame struct{ dict, event []byte }
	frames := make([]frame, len(events))
	encNS := make([]float64, len(events))
	var total int
	var buf []byte
	for i, ev := range events {
		start := time.Now()
		var dictEnd int
		buf, dictEnd, err = enc.EncodeEvent(buf[:0], ev)
		if err != nil {
			return 0, 0, 0, err
		}
		enc.Commit()
		encNS[i] = float64(since(start))
		frames[i] = frame{dict: bytes.Clone(buf[:dictEnd]), event: bytes.Clone(buf[dictEnd:])}
		total += len(buf)
	}
	dec := codec.NewDecoder()
	decNS := make([]float64, len(events))
	for i, f := range frames {
		start := time.Now()
		if len(f.dict) > 0 {
			if _, _, err = dec.DecodePayload(f.dict); err != nil {
				return 0, 0, 0, err
			}
		}
		if _, _, err = dec.DecodePayload(f.event); err != nil {
			return 0, 0, 0, err
		}
		decNS[i] = float64(since(start))
	}
	return median(encNS) / 1e3, median(decNS) / 1e3, float64(total) / float64(len(events)), nil
}
