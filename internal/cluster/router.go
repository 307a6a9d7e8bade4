package cluster

import (
	"bytes"
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httputil"
	"net/url"
	"strconv"
	"strings"
	"time"

	"querylearn/internal/store"
	"querylearn/pkg/api"
)

// shipPath is the journal-shipping endpoint the router intercepts before
// the inner server ever sees it.
const shipPath = "/v1/cluster/ship"

// Per-poll ship response caps: a catching-up follower drains the journal in
// bounded chunks instead of one unbounded response. The byte cap is checked
// before each record is framed, so a response can overshoot it by at most
// one maximum-size record — maxShipResponseBytes is the resulting hard
// bound a follower may buffer.
const (
	maxShipRecords       = 4096
	maxShipBytes         = 4 << 20
	maxShipResponseBytes = maxShipBytes + store.MaxRecordSize + store.RecordOverhead
)

// CodeNotOwner is the error code a redirect response body carries; the
// Location and X-Querylearn-Node headers are the machine-usable part.
const CodeNotOwner = "not_owner"

// Router wraps the server's handler with cluster routing: the ship endpoint,
// ownership redirects/proxying, and the replication barrier on locally
// served mutations. It must be the outermost layer so redirects fire before
// any local side effect.
func (c *Cluster) Router(inner http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(api.NodeHeader, c.self.ID)
		if r.URL.Path == shipPath {
			if r.Method != http.MethodGet {
				writeClusterError(w, http.StatusMethodNotAllowed, api.CodeBadRequest,
					"ship is GET-only")
				return
			}
			c.handleShip(w, r)
			return
		}
		id, v1, route := routeKey(r)
		if route == routeResume {
			id = c.peekResumeID(r)
		}
		if id == "" {
			c.serveLocal(inner, w, r)
			return
		}
		c.gate.RLock()
		owner, ok := c.owner(id)
		c.gate.RUnlock()
		if !ok || owner.ID == c.self.ID {
			c.serveLocal(inner, w, r)
			return
		}
		if v1 {
			c.redirect(w, r, owner)
			return
		}
		c.proxied.Inc()
		// The owner's router stamps its own node header on the proxied
		// response; drop ours so the client sees exactly one value.
		w.Header().Del(api.NodeHeader)
		c.proxies[owner.ID].serve(w, r)
	})
}

type routeKind int

const (
	routeLocal routeKind = iota
	routeSession
	routeResume
)

// routeKey extracts the routing decision from a request path: the session id
// for /sessions/{id}... paths, the resume marker for the resume endpoints
// (id lives in the body), local for everything else — create and list are
// local by construction (ids are minted locally-owned; the list is
// per-node), and the infra endpoints never leave the node.
func routeKey(r *http.Request) (id string, v1 bool, kind routeKind) {
	p := r.URL.Path
	if rest, ok := strings.CutPrefix(p, api.V1Prefix+"/"); ok {
		p, v1 = "/"+rest, true
	}
	if p == "/sessions/resume" {
		return "", v1, routeResume
	}
	rest, ok := strings.CutPrefix(p, "/sessions/")
	if !ok {
		return "", v1, routeLocal
	}
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	return rest, v1, routeSession
}

// peekResumeID buffers a resume body, extracts the snapshot id, and restores
// the body for whoever serves the request next (the inner server or the
// reverse proxy). The peek is capped at the server's configured body limit
// (Config.MaxBodyBytes) — the router runs outside the inner server's
// MaxBytesReader, so without its own cap N concurrent oversized posts would
// pin N unbounded buffers before any limit applied. A body that is
// oversized or not JSON routes local, where the inner server produces the
// proper structured error (413 for oversized).
func (c *Cluster) peekResumeID(r *http.Request) string {
	body, err := io.ReadAll(io.LimitReader(r.Body, c.cfg.MaxBodyBytes+1))
	r.Body.Close()
	r.Body = io.NopCloser(bytes.NewReader(body))
	r.GetBody = func() (io.ReadCloser, error) {
		return io.NopCloser(bytes.NewReader(body)), nil
	}
	if err != nil || int64(len(body)) > c.cfg.MaxBodyBytes {
		return ""
	}
	var peek struct {
		ID string `json:"id"`
	}
	if json.Unmarshal(body, &peek) != nil {
		return ""
	}
	return peek.ID
}

// redirect answers a /v1 request for a session another node owns: 307 with
// the owner's absolute URL, X-Querylearn-Node naming the owner. 307 keeps
// the method and body; the SDK (and any stdlib client) re-sends the request
// — Idempotency-Key included — at the owner.
func (c *Cluster) redirect(w http.ResponseWriter, r *http.Request, owner Peer) {
	c.redirects.Inc()
	w.Header().Set(api.NodeHeader, owner.ID)
	w.Header().Set("Location", "http://"+owner.Addr+r.URL.RequestURI())
	writeClusterError(w, http.StatusTemporaryRedirect, CodeNotOwner,
		"session is owned by node %s; follow the redirect", owner.ID)
}

// reverseProxy forwards legacy-path requests to the owning peer. Legacy
// clients predate the 307 contract and may not replay non-idempotent
// bodies, so the cluster replays for them.
type reverseProxy struct {
	rp *httputil.ReverseProxy
}

func newReverseProxy(p Peer) *reverseProxy {
	target := &url.URL{Scheme: "http", Host: p.Addr}
	rp := httputil.NewSingleHostReverseProxy(target)
	rp.ErrorHandler = func(w http.ResponseWriter, r *http.Request, err error) {
		writeClusterError(w, http.StatusBadGateway, api.CodeJournalUnavailable,
			"owner node unreachable: %v", err)
	}
	return &reverseProxy{rp: rp}
}

func (p *reverseProxy) serve(w http.ResponseWriter, r *http.Request) {
	p.rp.ServeHTTP(w, r)
}

// serveLocal runs the inner handler, holding successful mutations behind
// the replication barrier: the 2xx is buffered until every unfenced peer's
// follower cursor covers the journal tail the mutation produced. Reads and
// failures pass straight through.
func (c *Cluster) serveLocal(inner http.Handler, w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodGet || r.Method == http.MethodHead ||
		r.Method == http.MethodOptions || !c.hasUnfencedPeers() {
		inner.ServeHTTP(w, r)
		return
	}
	bw := &bufferedResponse{header: make(http.Header), status: http.StatusOK}
	inner.ServeHTTP(bw, r)
	if bw.status >= 200 && bw.status < 300 {
		if !c.awaitReplication(c.st.Cursor(), c.cfg.AckTimeout) {
			c.ackTimeouts.Inc()
		}
	}
	dst := w.Header()
	for k, vs := range bw.header {
		dst[k] = vs
	}
	w.WriteHeader(bw.status)
	w.Write(bw.body.Bytes())
}

// bufferedResponse captures a full response so its release can be delayed
// behind the replication barrier.
type bufferedResponse struct {
	header http.Header
	status int
	wrote  bool
	body   bytes.Buffer
}

func (b *bufferedResponse) Header() http.Header { return b.header }

func (b *bufferedResponse) WriteHeader(code int) {
	if !b.wrote {
		b.status = code
		b.wrote = true
	}
}

func (b *bufferedResponse) Write(p []byte) (int, error) {
	b.wrote = true
	return b.body.Write(p)
}

// handleShip serves one journal-shipping poll: GET /v1/cluster/ship
// ?shard=<owner id>&from_lsn=<gen>:<records>&epoch=<journal epoch>&wait=<ms>.
// The response body is raw CRC-framed journal records — the on-disk framing
// verbatim — and the X-Querylearn-Ship-* headers say which range of which
// epoch/generation it is. A from_lsn the journal cannot serve — wrong epoch
// (this process rebooted since the cursor was built; generations are only
// unique within one boot, so an equal (gen, records) shape may describe a
// different file entirely), unknown generation, or past the end — restarts
// the follower at record 0 of the current generation. The caller's from_lsn
// doubles as its applied-cursor report for the replication barrier, counted
// only once it has been proven against the live epoch and extent.
func (c *Cluster) handleShip(w http.ResponseWriter, r *http.Request) {
	if s := c.cfg.Secret; s != "" &&
		subtle.ConstantTimeCompare([]byte(r.Header.Get(shipSecretHeader)), []byte(s)) != 1 {
		writeClusterError(w, http.StatusForbidden, api.CodeBadRequest,
			"ship requires the cluster secret")
		return
	}
	q := r.URL.Query()
	if shard := q.Get("shard"); shard != c.self.ID {
		writeClusterError(w, http.StatusNotFound, api.CodeBadParam,
			"shard %q is not served here (this node is %q)", shard, c.self.ID)
		return
	}
	reqCur, okLSN := parseLSN(q.Get("from_lsn"))
	var wait time.Duration
	if ws := q.Get("wait"); ws != "" {
		ms, err := strconv.ParseInt(ws, 10, 64)
		if err != nil || ms < 0 {
			writeClusterError(w, http.StatusBadRequest, api.CodeBadParam,
				"wait must be a non-negative integer of milliseconds")
			return
		}
		wait = time.Duration(ms) * time.Millisecond
		if wait > c.cfg.ShipWait {
			wait = c.cfg.ShipWait
		}
	}
	// Ids outside the configured membership get no reader-cache slot and no
	// barrier vote; they are served as anonymous one-shot reads.
	peerID := r.Header.Get(api.NodeHeader)
	if peerID != "" && !c.knownPeer(peerID) {
		peerID = ""
	}

	epoch := c.st.Epoch()
	cur := c.st.Cursor()
	gen, from := reqCur.Gen, reqCur.Records
	if !okLSN || q.Get("epoch") != epoch || gen != cur.Gen || from > cur.Records {
		gen, from = cur.Gen, 0
	} else if peerID != "" {
		c.recordFollowerCursor(peerID, reqCur)
	}
	if from == cur.Records && wait > 0 {
		c.st.WaitCursor(cur, wait)
		cur = c.st.Cursor()
		if gen != cur.Gen {
			gen, from = cur.Gen, 0
		}
	}
	t, err := c.acquireReader(peerID, from)
	if err != nil {
		writeClusterError(w, http.StatusServiceUnavailable, api.CodeJournalUnavailable,
			"journal tail unavailable: %v", err)
		return
	}
	// The reader is the truth: a compaction racing the cursor reads above
	// may have landed us in a newer generation at record 0.
	gen, from = t.Gen(), t.Record()
	var buf []byte
	n := int64(0)
	for n < maxShipRecords && int64(len(buf)) < maxShipBytes {
		payload, rerr := t.Next()
		if rerr != nil {
			if rerr != io.EOF {
				// Mid-stream staleness: drop the reader; the follower's next
				// poll restarts cleanly.
				c.dropReader(t)
				t = nil
			}
			break
		}
		buf = store.FrameRecord(buf, payload)
		n++
	}
	totalBytes := int64(0)
	if t != nil {
		totalBytes = t.LimitBytes()
		c.releaseReader(peerID, t)
	}
	total := c.st.Cursor()
	totalRecords := total.Records
	if total.Gen != gen {
		totalRecords = from + n
	}
	h := w.Header()
	h.Set(shipEpochHeader, epoch)
	h.Set(shipGenHeader, strconv.FormatInt(gen, 10))
	h.Set(shipFromHeader, strconv.FormatInt(from, 10))
	h.Set(shipEndHeader, strconv.FormatInt(from+n, 10))
	h.Set(shipTotalHeader, strconv.FormatInt(totalRecords, 10))
	h.Set(shipTotalBytesHeader, strconv.FormatInt(totalBytes, 10))
	h.Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	w.Write(buf)
}

// parseLSN parses "gen:records".
func parseLSN(s string) (store.Cursor, bool) {
	g, r, ok := strings.Cut(s, ":")
	if !ok {
		return store.Cursor{}, false
	}
	gen, err1 := strconv.ParseInt(g, 10, 64)
	rec, err2 := strconv.ParseInt(r, 10, 64)
	if err1 != nil || err2 != nil || rec < 0 {
		return store.Cursor{}, false
	}
	return store.Cursor{Gen: gen, Records: rec}, true
}

// acquireReader returns a TailReader positioned at record from of the
// current generation, reusing the per-peer cached reader when it is already
// there (the common long-poll case — O(1) instead of rescanning the file).
func (c *Cluster) acquireReader(peerID string, from int64) (*store.TailReader, error) {
	if peerID != "" {
		c.readersMu.Lock()
		t := c.readers[peerID]
		delete(c.readers, peerID)
		c.readersMu.Unlock()
		if t != nil {
			if t.Record() == from && t.Refresh() == nil {
				return t, nil
			}
			t.Close()
		}
	}
	t, err := c.st.ReadFrom(from)
	if err != nil {
		// Raced with a compaction between cursor read and open: restart at
		// the new generation's head.
		t, err = c.st.ReadFrom(0)
	}
	return t, err
}

// releaseReader parks a reader for the peer's next poll; anonymous readers
// (no peer header) are closed.
func (c *Cluster) releaseReader(peerID string, t *store.TailReader) {
	if peerID == "" {
		t.Close()
		return
	}
	c.readersMu.Lock()
	old := c.readers[peerID]
	c.readers[peerID] = t
	c.readersMu.Unlock()
	if old != nil {
		old.Close()
	}
}

func (c *Cluster) dropReader(t *store.TailReader) { t.Close() }

// writeClusterError renders the server's structured error envelope shape
// from the routing layer.
func writeClusterError(w http.ResponseWriter, status int, code, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(api.ErrorResponse{
		Error: &api.Error{Code: code, Message: fmt.Sprintf(format, args...)},
	})
}
