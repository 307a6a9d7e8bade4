package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"time"

	"querylearn/internal/codec"
	"querylearn/internal/session"
	"querylearn/internal/store"
	"querylearn/pkg/api"
)

// Ship protocol headers. The request's from_lsn query parameter is the
// follower's applied cursor (paired with the epoch query parameter naming
// which journal lifetime it was built against); the response declares what
// range of which epoch/generation the body carries, plus the journal's
// current extent so the follower can publish its lag. The secret header
// carries Config.Secret when the cluster has one.
const (
	shipEpochHeader      = "X-Querylearn-Ship-Epoch"
	shipGenHeader        = "X-Querylearn-Ship-Gen"
	shipFromHeader       = "X-Querylearn-Ship-From"
	shipEndHeader        = "X-Querylearn-Ship-End"
	shipTotalHeader      = "X-Querylearn-Ship-Total"
	shipTotalBytesHeader = "X-Querylearn-Ship-Bytes"
	shipSecretHeader     = "X-Querylearn-Ship-Secret"
)

// follower is this node's warm standby of one peer: the peer's journal
// records applied — through session.ApplyEvent, the same single replay rule
// boot recovery uses — into a snapshot map, plus the codec state that makes
// the peer's v2 intern references resolvable.
type follower struct {
	c    *Cluster
	peer Peer

	mu     sync.Mutex
	sealed bool
	states map[string]*session.Snapshot
	dec    *codec.Decoder
	// epoch is the journal lifetime cur was built against ("" until the
	// first successful poll). Generations are process-local on the owner, so
	// an owner restart can reproduce cur's (gen, records) shape over a
	// different file; the epoch is what detects that and forces a resync.
	epoch string
	cur   store.Cursor
	// genBytes counts framed bytes applied of the current generation; with
	// the owner's reported totals it yields exact byte lag, because the
	// follower always enters a generation at record 0.
	genBytes   int64
	lagRecords int64
	lagBytes   int64
}

func newFollower(c *Cluster, p Peer) *follower {
	return &follower{
		c: c, peer: p,
		states: map[string]*session.Snapshot{},
		dec:    codec.NewDecoder(),
	}
}

// followLoop long-polls the peer's ship endpoint until the cluster stops or
// the peer is fenced. Errors back off one probe interval; the prober owns
// deciding when the peer is dead.
func (c *Cluster) followLoop(f *follower) {
	for {
		select {
		case <-c.stopC:
			return
		default:
		}
		c.stateMu.Lock()
		fenced := c.state[f.peer.ID] >= stateFencing
		c.stateMu.Unlock()
		if fenced {
			return
		}
		if err := f.poll(); err != nil {
			select {
			case <-c.stopC:
				return
			case <-time.After(c.cfg.ProbeInterval):
			}
		}
	}
}

// poll issues one ship request and applies whatever it returns.
func (f *follower) poll() error {
	f.mu.Lock()
	cur, epoch := f.cur, f.epoch
	f.mu.Unlock()
	waitMS := f.c.cfg.ShipWait.Milliseconds()
	u := fmt.Sprintf("http://%s%s?shard=%s&from_lsn=%d:%d&epoch=%s&wait=%d",
		f.peer.Addr, shipPath, url.QueryEscape(f.peer.ID), cur.Gen, cur.Records,
		url.QueryEscape(epoch), waitMS)
	ctx, cancel := context.WithTimeout(context.Background(),
		f.c.cfg.ShipWait+f.c.cfg.ProbeTimeout+5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	req.Header.Set(api.NodeHeader, f.c.self.ID)
	if s := f.c.cfg.Secret; s != "" {
		req.Header.Set(shipSecretHeader, s)
	}
	resp, err := f.c.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("cluster: ship from %s: HTTP %d", f.peer.ID, resp.StatusCode)
	}
	respEpoch := resp.Header.Get(shipEpochHeader)
	gen, err1 := strconv.ParseInt(resp.Header.Get(shipGenHeader), 10, 64)
	from, err2 := strconv.ParseInt(resp.Header.Get(shipFromHeader), 10, 64)
	if respEpoch == "" || err1 != nil || err2 != nil {
		return fmt.Errorf("cluster: ship from %s: malformed ship headers", f.peer.ID)
	}
	total, _ := strconv.ParseInt(resp.Header.Get(shipTotalHeader), 10, 64)
	totalBytes, _ := strconv.ParseInt(resp.Header.Get(shipTotalBytesHeader), 10, 64)
	// Drain the body BEFORE taking f.mu: seal() runs under the routing gate
	// during a fence, so holding the lock across a network read would stall
	// every routing decision on this node until the HTTP timeout — a
	// cluster-wide freeze at exactly the failover moment. The owner caps one
	// poll at maxShipBytes plus a single record, so the buffer is bounded; a
	// bigger (or torn) body is truncated at the limit and the framing check
	// in applyStreamLocked keeps only the intact prefix.
	body, rerr := io.ReadAll(io.LimitReader(resp.Body, maxShipResponseBytes))

	f.mu.Lock()
	defer f.mu.Unlock()
	if f.sealed {
		return nil
	}
	if respEpoch != f.epoch || gen != f.cur.Gen || from != f.cur.Records {
		if from != 0 {
			// The owner may only answer at our cursor or restart us at
			// record 0 of a generation; anything else is a protocol skew.
			// Force a full resync by invalidating our cursor.
			wanted := f.cur
			f.epoch = ""
			f.resetLocked(store.Cursor{Gen: -1})
			return fmt.Errorf("cluster: ship from %s: offered %d:%d, wanted %d:%d",
				f.peer.ID, gen, from, wanted.Gen, wanted.Records)
		}
		// Epoch change (owner restart) or generation change (compaction):
		// either way the journal is a different file with a fresh dictionary
		// and a full snapshot section, so dropping everything and replaying
		// from record 0 reconverges.
		f.epoch = respEpoch
		f.resetLocked(store.Cursor{Gen: gen})
	}
	f.applyStreamLocked(bufio.NewReader(bytes.NewReader(body)))
	if rerr != nil {
		// The intact prefix is applied and the cursor advanced past it; the
		// next poll resumes there. Report the cut so the loop backs off.
		return fmt.Errorf("cluster: ship from %s: reading body: %w", f.peer.ID, rerr)
	}
	if total >= f.cur.Records && gen == f.cur.Gen {
		f.lagRecords = total - f.cur.Records
	} else {
		f.lagRecords = 0
	}
	if totalBytes >= f.genBytes && gen == f.cur.Gen {
		f.lagBytes = totalBytes - f.genBytes
	} else {
		f.lagBytes = 0
	}
	f.c.lagRecords.With(f.peer.ID).Set(f.lagRecords)
	f.c.lagBytes.With(f.peer.ID).Set(f.lagBytes)
	return nil
}

// resetLocked discards the standby state for a fresh generation. The decoder
// must be rebuilt with it: intern ids are per-file.
func (f *follower) resetLocked(cur store.Cursor) {
	f.states = map[string]*session.Snapshot{}
	f.dec = codec.NewDecoder()
	f.cur = cur
	f.genBytes = 0
}

// applyStreamLocked folds framed records off the wire into the standby
// state. A torn tail (connection cut mid-record) just stops the batch: the
// applied prefix is kept and the next poll resumes at the cursor.
func (f *follower) applyStreamLocked(br *bufio.Reader) {
	records, bytes := int64(0), int64(0)
	for {
		payload, err := store.ReadRecord(br)
		if err != nil {
			break
		}
		var ev session.Event
		isEvent := true
		if codec.IsV2(payload) {
			ev2, isEv, derr := f.dec.DecodePayload(payload)
			if derr != nil {
				// CRC-intact but undecodable: count the record (the cursor
				// must track the owner's) and skip it, exactly like replay.
				isEvent = false
			} else if !isEv {
				isEvent = false // dictionary record: table extended
			} else {
				ev = ev2
			}
		} else if json.Unmarshal(payload, &ev) != nil {
			isEvent = false
		}
		if isEvent {
			// Apply errors (answers for an unknown session, schema drift)
			// are skips, not stream failures — same policy as recovery.
			_ = session.ApplyEvent(f.states, ev)
		}
		f.cur.Records++
		n := store.RecordOverhead + int64(len(payload))
		f.genBytes += n
		records++
		bytes += n
	}
	if records > 0 {
		f.c.shippedRecords.With(f.peer.ID).Add(records)
		f.c.shippedBytes.With(f.peer.ID).Add(bytes)
	}
}

// seal freezes the standby (no further records apply) and returns its
// sessions sorted the way recovery sorts — CreatedAt then ID — plus the
// shipped cursor, for the promotion log line.
func (f *follower) seal() ([]session.Snapshot, store.Cursor) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.sealed = true
	snaps := make([]session.Snapshot, 0, len(f.states))
	for _, s := range f.states {
		snaps = append(snaps, *s)
	}
	sort.Slice(snaps, func(i, j int) bool {
		if !snaps[i].CreatedAt.Equal(snaps[j].CreatedAt) {
			return snaps[i].CreatedAt.Before(snaps[j].CreatedAt)
		}
		return snaps[i].ID < snaps[j].ID
	})
	return snaps, f.cur
}

// lagStats reports the follower's replication view for the stats block.
func (f *follower) lagStats() (lagRecords, lagBytes int64, sessions int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.lagRecords, f.lagBytes, len(f.states)
}
