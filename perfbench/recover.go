package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"querylearn/internal/obs"
	"querylearn/internal/session"
	"querylearn/internal/store"
	"querylearn/pkg/api"
)

// journalName is the store's journal file inside its data directory.
const journalName = "journal.log"

// seedResidents writes the workload's resident population through each
// node's Manager (round robin over nodes), one writer on a fixed schedule:
// resident i runs template i mod len(tpls) and answers i mod 3 question
// batches, so the population sits mid-dialogue across all four models. It
// returns the labels the sessions acknowledged.
func seedResidents(nodes []*node, tpls []template, n int) (int64, error) {
	var labels int64
	for i := 0; i < n; i++ {
		tp := &tpls[i%len(tpls)]
		mgr := nodes[i%len(nodes)].mgr
		s, err := mgr.Create(tp.model, tp.task, session.CreateOptions{})
		if err != nil {
			return labels, fmt.Errorf("resident %d (%s): %w", i, tp.name, err)
		}
		for round := 0; round < i%3; round++ {
			qs, err := s.Questions(tp.batch)
			if err != nil {
				return labels, fmt.Errorf("resident %d (%s): %w", i, tp.name, err)
			}
			if len(qs) == 0 {
				break
			}
			answers, err := tp.label(qs)
			if err != nil {
				return labels, err
			}
			if _, err := s.Answer(answers, api.ReconcileNone); err != nil {
				return labels, fmt.Errorf("resident %d (%s): %w", i, tp.name, err)
			}
			labels += int64(len(answers))
		}
	}
	return labels, nil
}

// pristineJournal copies a node's journal, as written so far, to dst: the
// input every recovery in the run starts from (store.Open rewrites the
// journal it opens, so each recovery works on a fresh copy).
func pristineJournal(nd *node, dst string) error {
	if err := nd.st.Sync(); err != nil {
		return err
	}
	return copyFile(filepath.Join(nd.dir, journalName), dst)
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return err
	}
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// recovery is one timed cold start: store.Open, then Manager.Recover.
type recovery struct {
	open, recover time.Duration
}

// recoverOnce cold-opens a fresh copy of the pristine journal under dir and
// recovers it into a new manager, then checks that every written session
// came back live and equal to its written snapshot.
func recoverOnce(pristine, dir string, want []session.Snapshot) (recovery, error) {
	var r recovery
	if err := os.RemoveAll(dir); err != nil {
		return r, err
	}
	if err := copyFile(pristine, filepath.Join(dir, journalName)); err != nil {
		return r, err
	}
	defer os.RemoveAll(dir)
	start := time.Now()
	st, snaps, err := store.Open(dir, store.Options{Fsync: fsyncMode, Obs: obs.NewRegistry()})
	if err != nil {
		return r, err
	}
	opened := time.Now()
	mgr := session.NewManager(managerConfig(st))
	n, err := mgr.Recover(snaps)
	r.open, r.recover = opened.Sub(start), time.Since(opened)
	if err != nil {
		st.Close()
		return r, err
	}
	got, err := liveSnapshots(mgr)
	cerr := st.Close()
	if err != nil {
		return r, err
	}
	if cerr != nil {
		return r, cerr
	}
	if n != len(want) || mgr.Len() != len(want) {
		return r, fmt.Errorf("recovered %d of %d sessions (%d live)", n, len(want), mgr.Len())
	}
	return r, diffSnapshots(want, got)
}

// diffSnapshots names the first written session that is missing from got or
// whose snapshot differs.
func diffSnapshots(want, got []session.Snapshot) error {
	byID := map[string]session.Snapshot{}
	for _, s := range got {
		byID[s.ID] = s
	}
	for _, w := range want {
		g, ok := byID[w.ID]
		if !ok {
			return fmt.Errorf("session %s missing", w.ID)
		}
		wb, err := json.Marshal(w)
		if err != nil {
			return err
		}
		gb, err := json.Marshal(g)
		if err != nil {
			return err
		}
		if !bytes.Equal(wb, gb) {
			return fmt.Errorf("session %s differs: wrote %s, got %s", w.ID, wb, gb)
		}
	}
	return nil
}
