package session

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"querylearn/internal/loadgen"
	"querylearn/internal/xmltree"
)

// frontierOracle recomputes the schema learner's open questions from
// scratch, keeping every mutant as a cloned tree — the definition the
// string-keyed frontier, filtered in place on rejections, must reproduce.
func frontierOracle(l *schemaLearner) []*xmltree.Node {
	var out []*xmltree.Node
	seen := map[string]bool{}
	for _, doc := range l.corpus {
		for _, n := range doc.Nodes() {
			var labels []string
			first := map[string]int{}
			for i, c := range n.Children {
				if _, ok := first[c.Label]; !ok {
					first[c.Label] = i
					labels = append(labels, c.Label)
				}
			}
			for _, lb := range labels {
				for _, drop := range []bool{false, true} {
					mut := mutateDoc(doc, n, first[lb], drop)
					if key := mut.String(); !seen[key] && !l.rejected[key] && !l.hyp.Valid(mut) {
						seen[key] = true
						out = append(out, mut)
					}
				}
			}
		}
	}
	return out
}

// proposeOracle serializes the first k oracle mutants into questions.
func proposeOracle(t *testing.T, ref []*xmltree.Node, k int) []Question {
	t.Helper()
	if len(ref) == 0 {
		return nil
	}
	var qs []Question
	for _, doc := range ref[:clampBatch(k, len(ref))] {
		item, err := json.Marshal(schemaItem{Doc: doc.String()})
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, Question{
			Model:     "schema",
			Item:      item,
			Prompt:    fmt.Sprintf("should the schema accept this document? %s", doc.String()),
			Remaining: len(ref),
		})
	}
	return qs
}

// wideSchemaTask builds a document of width labels, each once, and a second
// document repeating a seeded half of them: the shape of the benchmark's
// large schema dialogue.
func wideSchemaTask(seed int64, width int) string {
	rng := rand.New(rand.NewSource(seed))
	var first, second strings.Builder
	first.WriteString("<r>")
	second.WriteString("<r>")
	repeated := map[int]bool{}
	for _, i := range rng.Perm(width)[:width/2] {
		repeated[i] = true
	}
	for i := 0; i < width; i++ {
		fmt.Fprintf(&first, "<l%d/>", i)
		fmt.Fprintf(&second, "<l%d/>", i)
		if repeated[i] {
			fmt.Fprintf(&second, "<l%d/>", i)
		}
	}
	first.WriteString("</r>")
	second.WriteString("</r>")
	return fmt.Sprintf("doc %s\ndoc %s\n", first.String(), second.String())
}

// TestSchemaFrontierMatchesRecomputation drives seeded schema dialogues to
// convergence one label at a time and, after every Record, checks the
// cached string frontier, Propose and Hypothesis against a from-scratch
// recomputation. Every 16 labels (the benchmark's batch) and at the end, a
// snapshot recovered into a second manager must ask and hold the same.
func TestSchemaFrontierMatchesRecomputation(t *testing.T) {
	tasks := map[string]string{
		"fixture": "doc <r><a/><b/></r>\ndoc <r><a/><a/><b/></r>\n",
		"wide":    wideSchemaTask(1, 20),
	}
	for name, full := range tasks {
		t.Run(name, func(t *testing.T) {
			seedTask, oracle, goal, err := loadgen.PrepareOracle("schema", full)
			if err != nil {
				t.Fatal(err)
			}
			m := NewManager(Config{})
			s, err := m.Create("schema", seedTask, CreateOptions{})
			if err != nil {
				t.Fatal(err)
			}
			l := s.learner.(*schemaLearner)
			labels := 0
			for {
				q, ok, err := s.Question()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				pos, err := oracle(q.Item)
				if err != nil {
					t.Fatal(err)
				}
				before, err := l.Hypothesis()
				if err != nil {
					t.Fatal(err)
				}
				if _, err := s.Answer([]Answer{{Item: q.Item, Positive: pos}}, ReconcileNone); err != nil {
					t.Fatal(err)
				}
				labels++
				checkSchemaLearner(t, l, before, pos)
				if labels%16 == 0 || name == "fixture" {
					checkRecovered(t, s)
				}
			}
			checkRecovered(t, s)
			h, err := s.Hypothesis()
			if err != nil {
				t.Fatal(err)
			}
			if !h.Converged || h.Query != goal {
				t.Fatalf("after %d labels: converged=%v query %q, want goal %q", labels, h.Converged, h.Query, goal)
			}
			t.Logf("%d labels", labels)
		})
	}
}

// checkSchemaLearner compares the learner with the recomputation after one
// Record; before is the hypothesis the Record started from.
func checkSchemaLearner(t *testing.T, l *schemaLearner, before Hypothesis, positive bool) {
	t.Helper()
	ref := frontierOracle(l)
	want := make([]string, len(ref))
	for i, doc := range ref {
		want[i] = doc.String()
	}
	if got := l.candidates(); !slices.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("cached frontier (%d open) departs from the recomputation (%d open) at index %d", len(got), len(want), i)
	}
	for _, k := range []int{1, 16, len(ref) + 1} {
		got, err := l.Propose(k)
		if err != nil {
			t.Fatal(err)
		}
		if exp := proposeOracle(t, ref, k); !reflect.DeepEqual(got, exp) {
			t.Fatalf("Propose(%d) = %+v, recomputation %+v", k, got, exp)
		}
	}
	h, err := l.Hypothesis()
	if err != nil {
		t.Fatal(err)
	}
	if h.Converged != (len(ref) == 0) || h.Query != l.hyp.String() {
		t.Fatalf("hypothesis %+v disagrees with the recomputed frontier (%d open)", h, len(ref))
	}
	if !positive && h.Query != before.Query {
		t.Fatalf("a rejection changed the hypothesis from %q to %q", before.Query, h.Query)
	}
}

// checkRecovered snapshots the session, recovers it into a fresh manager,
// and requires the recovered session to ask and hold exactly the same.
func checkRecovered(t *testing.T, s *Session) {
	t.Helper()
	m2 := NewManager(Config{})
	if n, err := m2.Recover([]Snapshot{s.Snapshot()}); n != 1 || err != nil {
		t.Fatalf("Recover = %d, %v", n, err)
	}
	s2, err := m2.Get(s.ID())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 16} {
		want, err := s.Questions(k)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s2.Questions(k)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("recovered Questions(%d) = %+v, live %+v", k, got, want)
		}
	}
	want, err := s.Hypothesis()
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.Hypothesis()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered hypothesis %+v, live %+v", got, want)
	}
}
