package session

import (
	"encoding/json"
	"fmt"

	"querylearn/internal/core"
	"querylearn/internal/schema"
	"querylearn/internal/schemalearn"
	"querylearn/internal/xmltree"
)

// schemaItem carries a whole candidate document on the wire, serialized as
// inline XML.
type schemaItem struct {
	Doc string `json:"doc"`
}

// schemaLearner makes schema inference interactive. schemalearn learns from
// positive examples only (the paper's §2 identifiability-in-the-limit
// result), so the version space is "every schema accepting the corpus" and
// the learned schema is its tightest element. A document the tight
// hypothesis rejects is exactly an informative question: more general
// consistent schemas accept it, the tight one does not. The learner probes
// that disagreement region with one-step mutations of corpus documents —
// duplicating a child (upper multiplicity) or dropping one (lower
// multiplicity / optionality). A positive answer joins the corpus and
// genuinely generalizes the hypothesis; a negative answer prunes the
// question frontier (it cannot shrink a positive-only learner, matching the
// theory). The frontier is finite and multiplicities saturate at {0, 1, ∞},
// so the dialogue converges.
type schemaLearner struct {
	decodeCache
	corpus   []*xmltree.Node
	hyp      *schema.Schema
	rejected map[string]bool // canonical XML of negatively labeled docs
	// frontier caches the open-question mutants, as canonical XML, between
	// Records; cloning and validating every mutant is the expensive step,
	// and Next, Hypothesis, and the Manager's post-answer Remaining probe
	// all want it within one request. The string is what Propose sends and
	// what a rejection is matched against, so no mutant tree is kept.
	frontier      []string
	frontierValid bool
}

func newSchemaLearner(src string) (*schemaLearner, error) {
	task, err := core.ParseSchemaTask(src)
	if err != nil {
		return nil, err
	}
	hyp, err := schemalearn.Learn(task.Docs)
	if err != nil {
		return nil, err
	}
	return &schemaLearner{corpus: task.Docs, hyp: hyp, rejected: map[string]bool{}}, nil
}

// candidates returns the open-question frontier, recomputing it only when a
// Record invalidated the cache.
func (l *schemaLearner) candidates() []string {
	if !l.frontierValid {
		l.frontier = l.computeFrontier()
		l.frontierValid = true
	}
	return l.frontier
}

// computeFrontier enumerates the open questions in deterministic order: for
// each corpus document, each node in document order, each distinct child
// label in first-occurrence order, the duplicate- and drop-one-child mutants
// that the current hypothesis rejects and the user has not rejected either.
func (l *schemaLearner) computeFrontier() []string {
	var out []string
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
					key := mut.String()
					if seen[key] || l.rejected[key] || l.hyp.Valid(mut) {
						continue
					}
					seen[key] = true
					out = append(out, key)
				}
			}
		}
	}
	return out
}

// mutateDoc clones doc and either drops node's child at index i or appends a
// duplicate of it. The node is located in the clone by its child-index path.
func mutateDoc(doc, node *xmltree.Node, i int, drop bool) *xmltree.Node {
	clone := doc.Clone()
	at, err := core.ResolveNodePath(clone, core.NodePathOf(node))
	if err != nil {
		// The path came from the same tree shape; this cannot happen.
		panic(fmt.Sprintf("session: mutateDoc lost its node: %v", err))
	}
	if drop {
		at.Children = append(at.Children[:i:i], at.Children[i+1:]...)
		return clone
	}
	at.Add(at.Children[i].Clone())
	return clone
}

// Model implements Learner.
func (l *schemaLearner) Model() string { return "schema" }

// Propose implements Learner: the first k frontier mutants in the
// deterministic corpus enumeration order (distinct by construction — the
// frontier is deduplicated on canonical XML).
func (l *schemaLearner) Propose(k int) ([]Question, error) {
	cands := l.candidates()
	if len(cands) == 0 {
		return nil, nil
	}
	qs := make([]Question, 0, clampBatch(k, len(cands)))
	for _, doc := range cands[:clampBatch(k, len(cands))] {
		item, err := json.Marshal(schemaItem{Doc: doc})
		if err != nil {
			return nil, err
		}
		qs = append(qs, Question{
			Model:     "schema",
			Item:      item,
			Prompt:    "should the schema accept this document? " + doc,
			Remaining: len(cands),
		})
	}
	return qs, nil
}

// parseDoc decodes an item and checks the document fits the corpus.
func (l *schemaLearner) parseDoc(raw json.RawMessage) (*xmltree.Node, error) {
	it, err := decodeItemCached[schemaItem](&l.decodeCache, "schema", raw)
	if err != nil {
		return nil, err
	}
	doc, err := xmltree.Parse(it.Doc)
	if err != nil {
		return nil, fmt.Errorf("session: bad document in answer: %w", err)
	}
	if doc.Label != l.corpus[0].Label {
		return nil, fmt.Errorf("session: answer document root %q conflicts with corpus root %q",
			doc.Label, l.corpus[0].Label)
	}
	return doc, nil
}

// Validate implements Learner.
func (l *schemaLearner) Validate(raw json.RawMessage) error {
	_, err := l.parseDoc(raw)
	return err
}

// Record implements Learner.
func (l *schemaLearner) Record(raw json.RawMessage, positive bool) error {
	doc, err := l.parseDoc(raw)
	if err != nil {
		return err
	}
	if !positive {
		key := doc.String()
		l.rejected[key] = true
		if l.frontierValid {
			// A rejection only removes that mutant; filter in place
			// instead of recomputing the whole frontier.
			kept := l.frontier[:0]
			for _, c := range l.frontier {
				if c != key {
					kept = append(kept, c)
				}
			}
			l.frontier = kept
		}
		return nil
	}
	hyp, err := schemalearn.Learn(append(l.corpus, doc))
	if err != nil {
		return err
	}
	l.corpus = append(l.corpus, doc)
	l.hyp = hyp
	l.frontierValid = false
	return nil
}

// Hypothesis implements Learner.
func (l *schemaLearner) Hypothesis() (Hypothesis, error) {
	return Hypothesis{
		Model:     "schema",
		Query:     l.hyp.String(),
		Converged: len(l.candidates()) == 0,
		Detail: map[string]string{
			"documents": fmt.Sprint(len(l.corpus)),
			"rejected":  fmt.Sprint(len(l.rejected)),
		},
	}, nil
}
