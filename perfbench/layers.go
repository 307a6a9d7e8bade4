package main

import (
	"fmt"
	"strings"
)

// endToEnd are the metrics an untraced run reports: BENCHMARK.json's
// end_to_end list.
var endToEnd = []string{
	"setup_s", "dialogues_per_s", "create_p50_ms", "question_p50_ms", "answer_p50_ms",
	"answer_p90_ms", "questions_per_dialogue", "recover_s", "journal_bytes_per_answer",
	"live_heap_mb", "succeeded_share",
}

// perLayer are the metrics a traced run reports: BENCHMARK.json's per_layer
// list.
func perLayer() []string {
	names := []string{
		"client.self_ms", "server.self_ms", "session.self_ms", "learner.share",
		"plan.ms_per_dialogue", "plan.decisions_per_dialogue", "plan.early_stops_per_dialogue",
		"codec.encode_us", "codec.decode_us", "codec.bytes_per_event",
		"journal.append_ms", "store.events_per_fsync", "store.open_s", "session.recover_s",
		"cluster.redirects_per_dialogue", "cluster.barrier_ms", "cluster.shipped_bytes_per_answer",
		"trace.overhead_share", "trace.unattributed_share",
	}
	for _, model := range models {
		for _, part := range []string{"build_ms", "propose_ms", "record_ms"} {
			names = append(names, "learner."+model+"."+part)
		}
	}
	for _, phase := range obsPhases {
		names = append(names, "obs."+phase+"_p50_ms")
	}
	return names
}

var models = []string{"twig", "join", "path", "schema"}

// obsPhases are the production trace phases querylearnd records in
// querylearn_phase_seconds under batched fsync (fsync.wait only exists
// under fsync=always).
var obsPhases = []string{
	"admission.wait", "session.lock", "learner.build", "learner.validate",
	"learner.propose", "learner.record", "journal.append", "plan",
}

// finish turns the traced run into the per-layer metrics.
func (lr *layerRun) finish(res *result, recs []recovery) {
	t := lr.traced

	// pkg/client and loopback: the SDK call minus the server-side spans it
	// caused.
	var clientSelf, barrier []float64
	var journalMS []float64
	for _, group := range lr.byRID {
		for _, s := range group {
			switch s.layer {
			case layerSDK:
				self := s.SelfNS
				for _, c := range group {
					if c.layer == layerHTTP && c.Parent == s.ID {
						self += c.SelfNS
					}
				}
				clientSelf = append(clientSelf, nsToMS(float64(self)))
			case layerRouter:
				for _, c := range group {
					if c.layer == layerServer && c.Parent == s.ID && s.Status == 200 && strings.HasSuffix(c.Name, "/answers") {
						barrier = append(barrier, nsToMS(float64(s.DurNS-c.DurNS)))
					}
				}
			case layerJournal:
				journalMS = append(journalMS, nsToMS(float64(s.DurNS)))
			}
		}
	}
	res.setLayer("client.self_ms", median(clientSelf), "ms")

	// The ladder: per-op medians of each rung's self time.
	res.check("ladder replay", lr.ladderErr)
	l := lr.ladder
	if l == nil {
		l = &ladder{}
	}
	var serverSelf, sessionSelf []float64
	build, propose, record := map[string][]float64{}, map[string][]float64{}, map[string][]float64{}
	var learnerQA, sdkQA, unattributed, answersSDK float64
	for _, op := range l.ops {
		serverSelf = append(serverSelf, nsToMS(float64(op.handlerNS-op.managerNS)))
		sessionSelf = append(sessionSelf, nsToMS(float64(op.managerNS-op.learnerNS)))
		switch op.kind {
		case opCreate:
			build[op.model] = append(build[op.model], nsToMS(float64(op.buildNS)))
		case opQuestions:
			propose[op.model] = append(propose[op.model], nsToMS(float64(op.proposeNS)))
		case opAnswers:
			record[op.model] = append(record[op.model], nsToMS(float64(op.recordNS)))
		}
		if op.kind != opQuestions && op.kind != opAnswers {
			continue
		}
		learnerQA += float64(op.learnerNS)
		sdkQA += float64(op.sdkNS)
		if op.kind == opAnswers {
			var server, journal int64
			for _, s := range lr.byRID[op.rid] {
				switch s.layer {
				case layerServer:
					server += s.DurNS
				case layerJournal:
					journal += s.DurNS
				}
			}
			unattributed += float64(server - op.handlerNS - journal)
			answersSDK += float64(op.sdkNS)
		}
	}
	res.setLayer("server.self_ms", median(serverSelf), "ms")
	res.setLayer("session.self_ms", median(sessionSelf), "ms")
	for _, model := range models {
		res.setLayer("learner."+model+".build_ms", median(build[model]), "ms")
		res.setLayer("learner."+model+".propose_ms", median(propose[model]), "ms")
		res.setLayer("learner."+model+".record_ms", median(record[model]), "ms")
	}
	res.setLayer("learner.share", learnerQA/max(sdkQA, 1), "ratio")
	res.setLayer("trace.unattributed_share", unattributed/max(answersSDK, 1), "ratio")

	var planNS, decisions, early float64
	for _, p := range l.plans {
		planNS += float64(p.ns)
		decisions += float64(p.decisions)
		early += float64(p.earlyStops)
	}
	paths := float64(max(len(l.plans), 1))
	res.setLayer("plan.ms_per_dialogue", nsToMS(planNS)/paths, "ms")
	res.setLayer("plan.decisions_per_dialogue", decisions/paths, "count")
	res.setLayer("plan.early_stops_per_dialogue", early/paths, "count")

	enc, dec, perEvent, err := codecStats(l.events)
	res.check("codec round trip", err)
	res.setLayer("codec.encode_us", enc, "us")
	res.setLayer("codec.decode_us", dec, "us")
	res.setLayer("codec.bytes_per_event", perEvent, "B")

	res.setLayer("journal.append_ms", median(journalMS), "ms")
	res.setLayer("store.events_per_fsync", float64(lr.storeDelta[1])/float64(max(lr.storeDelta[2], 1)), "count")
	res.setLayer("store.open_s", median(recoverySeconds(recs, true, false)), "s")
	res.setLayer("session.recover_s", median(recoverySeconds(recs, false, true)), "s")

	var ackTimeouts int64
	for _, nd := range lr.e.nodes {
		if nd.clu != nil {
			ackTimeouts += nd.clu.Stats().AckTimeouts
		}
	}
	res.setLayer("cluster.redirects_per_dialogue", float64(lr.redirects)/float64(max(t.dialogues, 1)), "count")
	res.setLayer("cluster.barrier_ms", median(barrier), "ms")
	res.setLayer("cluster.shipped_bytes_per_answer", float64(lr.shipped)/float64(max(t.labels, 1)), "B")

	for _, phase := range obsPhases {
		snap := lr.phases[phase]
		res.setLayer("obs."+phase+"_p50_ms", snap.Quantile(0.5)*1e3, "ms")
	}

	res.setLayer("trace.overhead_share", 1-lr.tracedDPS/max(lr.untracedDPS, 1e-9), "ratio")

	// Zero on every passing run, so printed rather than reported: a shed
	// request reaches the SDK as a 429 and a timed-out ack fails the
	// cluster check, and both count in failed.
	res.notes = append(res.notes, fmt.Sprintf("traced stretch: %.0f of %.0f requests shed by admission, %d replication acks timed out",
		lr.shed, lr.requests, ackTimeouts))
}
