// Package twiglearn implements learning of twig queries from annotated XML
// documents, following Staworko & Wieczorek ("Learning twig and path
// queries", ICDT 2012) as described in §2 of the paper: the learner computes
// the most specific generalization of the examples' selecting paths and of
// the structural patterns common to all examples, optionally pruning filters
// implied by a schema (the paper's "optimized version" attacking
// overspecialization), and offers consistency checking against negative
// examples (NP-complete in general; exact bounded search here).
package twiglearn

import (
	"fmt"

	"querylearn/internal/twig"
	"querylearn/internal/xmltree"
)

// Example is an annotated document node: the user points at a node of a
// document and labels it as selected (positive) or not selected (negative)
// by the goal query.
type Example struct {
	Doc      *xmltree.Node
	Node     *xmltree.Node
	Positive bool
}

// NewExample builds an example, verifying that the node belongs to the
// document tree.
func NewExample(doc, node *xmltree.Node, positive bool) (Example, error) {
	if doc == nil || node == nil {
		return Example{}, fmt.Errorf("twiglearn: nil document or node")
	}
	if node.Root() != doc {
		return Example{}, fmt.Errorf("twiglearn: node %q is not in the document", node.Label)
	}
	return Example{Doc: doc, Node: node, Positive: positive}, nil
}

// ExamplesFromQuery labels every node the goal query selects on each
// document as a positive example — the simulation protocol used by the
// paper's experiments, where the goal query plays the user.
func ExamplesFromQuery(goal twig.Query, docs []*xmltree.Node) []Example {
	var out []Example
	for _, d := range docs {
		for _, n := range goal.Eval(d) {
			out = append(out, Example{Doc: d, Node: n, Positive: true})
		}
	}
	return out
}

// Split partitions examples into positive and negative.
func Split(examples []Example) (pos, neg []Example) {
	for _, e := range examples {
		if e.Positive {
			pos = append(pos, e)
		} else {
			neg = append(neg, e)
		}
	}
	return pos, neg
}

// Consistent reports whether q selects the node of every positive example
// and of no negative example. The query is evaluated once per distinct
// document, not once per example.
func Consistent(q twig.Query, examples []Example) bool {
	return consistentWith(&selection{eval: q.Eval}, examples)
}

// consistentWith reports whether sel labels every example correctly.
func consistentWith(sel *selection, examples []Example) bool {
	for _, e := range examples {
		if sel.selects(e) != e.Positive {
			return false
		}
	}
	return true
}

// selection memoizes the nodes a query selects, one set per document keyed
// on the document pointer: the examples of a session share one corpus
// document, and a full evaluation per example would rebuild the
// evaluator's tables over that document once per label.
type selection struct {
	eval func(doc *xmltree.Node) []*xmltree.Node
	docs map[*xmltree.Node]map[*xmltree.Node]bool
}

// selects reports whether the query selects the example's node, evaluating
// it over the example's document on first use.
func (s *selection) selects(e Example) bool {
	set, ok := s.docs[e.Doc]
	if !ok {
		set = map[*xmltree.Node]bool{}
		for _, n := range s.eval(e.Doc) {
			set[n] = true
		}
		if s.docs == nil {
			s.docs = map[*xmltree.Node]map[*xmltree.Node]bool{}
		}
		s.docs[e.Doc] = set
	}
	return set[e.Node]
}
