package cluster

import (
	"context"
	"fmt"
	"net/http"
	"time"
)

// probeLoop watches one peer's /healthz. Consecutive failures past
// cfg.FailAfter fence the peer; a fenced peer is never probed again (the
// latch is permanent for this process). Any 2xx counts as healthy —
// "degraded" still answers probes, and a degraded peer must keep its
// sessions (its journal is intact; fencing it would fork history).
func (c *Cluster) probeLoop(p Peer) {
	fails := 0
	seen := false // the peer answered at least one probe this process
	graceUntil := time.Now().Add(c.cfg.BootGrace)
	t := time.NewTicker(c.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stopC:
			return
		case <-t.C:
		}
		c.stateMu.Lock()
		fenced := c.state[p.ID] >= stateFencing
		c.stateMu.Unlock()
		if fenced {
			return
		}
		if err := c.probe(p); err == nil {
			fails = 0
			seen = true
			if c.setState(p.ID, stateAlive) {
				c.log.Info("peer alive", "peer", p.ID, "addr", p.Addr)
			}
			continue
		} else if fails == 0 {
			// Log the start of each failure streak (not every tick): the
			// one line that distinguishes refused from timeout from a
			// misconfigured peer address during an outage postmortem.
			c.log.Warn("peer probe failing", "peer", p.ID, "addr", p.Addr, "err", err.Error())
		}
		// A peer that has never answered is most likely still booting
		// (rolling start); fencing is permanent, so forgive its failures
		// until the boot grace runs out.
		if !seen && time.Now().Before(graceUntil) {
			continue
		}
		fails++
		if fails >= c.cfg.FailAfter {
			c.fence(p.ID)
			return
		}
	}
}

// probe issues one bounded /healthz GET.
func (c *Cluster) probe(p Peer) error {
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+p.Addr+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		return fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	return nil
}
