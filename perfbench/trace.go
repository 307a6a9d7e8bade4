package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"querylearn/internal/obs"
	"querylearn/internal/session"
	"querylearn/internal/store"
	"querylearn/pkg/api"
)

// layer orders the span boundaries the traced run records, outermost first.
// Spans of one request share its X-Request-Id; a span's parent is the
// innermost span of an outer layer, with the same id, that contains it.
type layer int

const (
	layerSDK     layer = iota // one pkg/client call, timed by the crowd worker
	layerHTTP                 // one HTTP attempt, timed by the RoundTripper
	layerRouter               // the cluster router around the server
	layerServer               // Server.Handler()
	layerJournal              // one journal append, timed by the Journal wrapper
)

var layerNames = [...]string{"sdk", "http", "router", "server", "journal"}

// span is one recorded interval. Times are nanoseconds since the tracer's
// epoch; Self is the duration minus the part its children cover.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	RID     string `json:"rid,omitempty"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
	SelfNS  int64  `json:"self_ns"`
	Status  int    `json:"status,omitempty"`

	layer layer
}

func (s span) end() int64 { return s.StartNS + s.DurNS }

// tracer keeps spans in memory while on.
// A nil tracer is the untraced run: every hook is then a no-op.
type tracer struct {
	epoch time.Time
	on    atomic.Bool

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) active() bool { return t != nil && t.on.Load() }

func (t *tracer) add(l layer, name, rid string, start, end time.Time, status int) {
	s := span{
		Layer: layerNames[l], Name: name, RID: rid, Status: status, layer: l,
		StartNS: start.Sub(t.epoch).Nanoseconds(), DurNS: end.Sub(start).Nanoseconds(),
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// opTag rides a pkg/client call's context so the RoundTripper can tell the
// crowd worker which request id the SDK chose.
type opTag struct {
	rid string
}

type opTagKey struct{}

func withOpTag(ctx context.Context, tag *opTag) context.Context {
	return context.WithValue(ctx, opTagKey{}, tag)
}

// transport wraps the SDK's RoundTripper. It always counts refused
// attempts: a 429 or 503 answer or a transport error, the only causes of an
// SDK retry, each count as failed even when the retry then succeeds. With
// the tracer on it also records one span per attempt, ended when the SDK has
// read the body.
type transport struct {
	base    http.RoundTripper
	tr      *tracer
	refused atomic.Int64
}

func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil || resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
		t.refused.Add(1)
	}
	if tag, _ := req.Context().Value(opTagKey{}).(*opTag); tag != nil {
		tag.rid = req.Header.Get(api.RequestIDHeader)
	}
	if !t.tr.active() {
		return resp, err
	}
	name, rid := req.Method+" "+req.URL.Path, req.Header.Get(api.RequestIDHeader)
	if err != nil {
		t.tr.add(layerHTTP, name, rid, start, time.Now(), 0)
		return resp, err
	}
	status := resp.StatusCode
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func() {
		t.tr.add(layerHTTP, name, rid, start, time.Now(), status)
	}}
	return resp, nil
}

// spanBody ends its attempt span at EOF or Close, whichever comes first.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err == io.EOF {
		b.once.Do(b.done)
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.once.Do(b.done)
	return b.ReadCloser.Close()
}

// wrapHandler records one span per request that carries a request id (SDK
// calls do; cluster probes and ship polls do not).
func (t *tracer) wrapHandler(l layer, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid := r.Header.Get(api.RequestIDHeader)
		if rid == "" || !t.active() {
			h.ServeHTTP(w, r)
			return
		}
		sw := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h.ServeHTTP(sw, r)
		t.add(l, r.Method+" "+r.URL.Path, rid, start, time.Now(), sw.status)
	})
}

type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (s *statusRecorder) WriteHeader(code int) {
	s.status = code
	s.ResponseWriter.WriteHeader(code)
}

func (s *statusRecorder) Unwrap() http.ResponseWriter { return s.ResponseWriter }

// tracedJournal times every append into the store. It forwards the
// store's optional faces — traced appends, compaction and degraded-state
// reporting — because the manager changes behaviour when they are missing.
type tracedJournal struct {
	st *store.Store
	tr *tracer
}

var (
	_ session.TracedJournal   = (*tracedJournal)(nil)
	_ session.Compactor       = (*tracedJournal)(nil)
	_ session.DegradedJournal = (*tracedJournal)(nil)
)

func (j *tracedJournal) Append(ev session.Event) error { return j.AppendTraced(ev, nil) }

func (j *tracedJournal) AppendTraced(ev session.Event, tr *obs.Trace) error {
	if !j.tr.active() {
		return j.st.AppendTraced(ev, tr)
	}
	start := time.Now()
	err := j.st.AppendTraced(ev, tr)
	rid := ""
	if tr != nil {
		rid = tr.RequestID
	}
	j.tr.add(layerJournal, ev.Kind, rid, start, time.Now(), 0)
	return err
}

func (j *tracedJournal) Compact(snaps []session.Snapshot) error { return j.st.Compact(snaps) }

func (j *tracedJournal) Degraded() (string, time.Time, bool) { return j.st.Degraded() }

// link assigns every span its id, parent and self time, and returns the
// spans grouped by request id.
func (t *tracer) link() map[string][]*span {
	t.mu.Lock()
	defer t.mu.Unlock()
	byRID := map[string][]*span{}
	for i := range t.spans {
		s := &t.spans[i]
		s.ID, s.Parent, s.SelfNS = i+1, 0, s.DurNS
		if s.RID != "" {
			byRID[s.RID] = append(byRID[s.RID], s)
		}
	}
	for _, group := range byRID {
		sort.SliceStable(group, func(i, j int) bool { return group[i].layer < group[j].layer })
		children := map[int][]*span{}
		for _, s := range group {
			var parent *span
			for _, p := range group {
				if p.layer >= s.layer || p.StartNS > s.StartNS || p.end() < s.end() {
					continue
				}
				if parent == nil || p.layer > parent.layer {
					parent = p
				}
			}
			if parent != nil {
				s.Parent = parent.ID
				children[parent.ID] = append(children[parent.ID], s)
			}
		}
		for _, s := range group {
			s.SelfNS = s.DurNS - covered(children[s.ID])
		}
	}
	return byRID
}

// covered is the length of the union of the spans' intervals.
func covered(spans []*span) int64 {
	if len(spans) == 0 {
		return 0
	}
	iv := make([][2]int64, len(spans))
	for i, s := range spans {
		iv[i] = [2]int64{s.StartNS, s.end()}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cur := iv[0]
	for _, x := range iv[1:] {
		if x[0] > cur[1] {
			total += cur[1] - cur[0]
			cur = x
			continue
		}
		if x[1] > cur[1] {
			cur[1] = x[1]
		}
	}
	return total + cur[1] - cur[0]
}

// dump writes every span as one JSON document.
func (t *tracer) dump(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	b, err := json.Marshal(struct {
		Epoch time.Time `json:"epoch"`
		Spans []span    `json:"spans"`
	}{t.epoch, t.spans})
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
