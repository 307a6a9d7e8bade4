package twiglearn

import (
	"fmt"
	"sort"
	"strings"

	"querylearn/internal/twig"
	"querylearn/internal/xmltree"
)

// Unions of twig queries — the paper's proposed richer class: "We also plan
// to address the intractability of the consistency by considering richer
// query languages e.g., unions of twig queries for which testing
// consistency is trivial but learnability remains an open question." (§2)
//
// Consistency is indeed trivial: the union of the fully specific queries of
// the positive examples selects exactly those nodes (plus coincidental
// twins), so a consistent union exists unless a positive and a negative
// example have identical selecting contexts. The learner here clusters the
// positives by output label, learns one most specific twig per cluster,
// and greedily merges clusters while no negative gets selected — a
// reasonable answer to the open learnability question, tested for
// soundness rather than theoretical optimality.

// UnionQuery is a finite union of twig queries; it selects a node when any
// member does.
type UnionQuery struct {
	Members []twig.Query
}

// Eval returns the nodes selected by any member, in document order.
func (u UnionQuery) Eval(doc *xmltree.Node) []*xmltree.Node {
	sel := map[*xmltree.Node]bool{}
	for _, m := range u.Members {
		for _, n := range m.Eval(doc) {
			sel[n] = true
		}
	}
	var out []*xmltree.Node
	doc.Walk(func(n *xmltree.Node) bool {
		if sel[n] {
			out = append(out, n)
		}
		return true
	})
	return out
}

// Selects reports whether any member selects the node.
func (u UnionQuery) Selects(doc *xmltree.Node, n *xmltree.Node) bool {
	for _, m := range u.Members {
		if m.Selects(doc, n) {
			return true
		}
	}
	return false
}

// Size returns the total pattern-node count across members.
func (u UnionQuery) Size() int {
	s := 0
	for _, m := range u.Members {
		s += m.Size()
	}
	return s
}

func (u UnionQuery) String() string {
	parts := make([]string, len(u.Members))
	for i, m := range u.Members {
		parts[i] = m.String()
	}
	return strings.Join(parts, " | ")
}

// ConsistentUnion reports whether the union labels every example correctly,
// evaluating it once per distinct document.
func ConsistentUnion(u UnionQuery, examples []Example) bool {
	return consistentWith(&selection{eval: u.Eval}, examples)
}

// LearnUnion learns a union of twig queries consistent with the examples.
// Positives are first grouped by the label of the annotated node (distinct
// intents usually target distinct elements), one most specific twig is
// learned per group, groups whose member selects a negative are split down
// to per-example specific queries, and finally a greedy pass merges members
// whose generalization stays consistent — trading union size against
// generality.
func LearnUnion(examples []Example, opts Options) (UnionQuery, error) {
	pos, _ := Split(examples)
	if len(pos) == 0 {
		return UnionQuery{}, fmt.Errorf("twiglearn: need at least one positive example")
	}
	groups := map[string][]Example{}
	for _, e := range pos {
		groups[e.Node.Label] = append(groups[e.Node.Label], e)
	}
	labels := make([]string, 0, len(groups))
	for l := range groups {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	var members []twig.Query
	var memberExs [][]Example
	for _, l := range labels {
		g := groups[l]
		q, err := Learn(g, opts)
		if err == nil && consistentMember(q, g, examples) {
			members = append(members, q)
			memberExs = append(memberExs, g)
			continue
		}
		// Split the group: one fully specific query per example.
		for _, e := range g {
			q, err := Learn([]Example{e}, opts)
			if err != nil {
				return UnionQuery{}, err
			}
			if !consistentMember(q, []Example{e}, examples) {
				return UnionQuery{}, fmt.Errorf("twiglearn: no consistent union (a negative shares the exact context of positive %q)", e.Node.Label)
			}
			members = append(members, q)
			memberExs = append(memberExs, []Example{e})
		}
	}
	// Greedy pairwise merging, restricted to members targeting the same
	// output label: merging across labels would force a wildcard output
	// node and silently widen the selection to unrelated elements.
	merged := true
	for merged {
		merged = false
		for i := 0; i < len(members) && !merged; i++ {
			for j := i + 1; j < len(members) && !merged; j++ {
				if memberExs[i][0].Node.Label != memberExs[j][0].Node.Label {
					continue
				}
				combined := append(append([]Example{}, memberExs[i]...), memberExs[j]...)
				q, err := Learn(combined, opts)
				if err != nil || !consistentMember(q, combined, examples) {
					continue
				}
				members[i], memberExs[i] = q, combined
				members = append(members[:j], members[j+1:]...)
				memberExs = append(memberExs[:j], memberExs[j+1:]...)
				merged = true
			}
		}
	}
	u := UnionQuery{Members: members}
	if !ConsistentUnion(u, examples) {
		return UnionQuery{}, fmt.Errorf("twiglearn: union construction failed consistency (unexpected)")
	}
	return u, nil
}

// consistentMember reports whether q selects all of its own positives and
// none of the global negatives.
func consistentMember(q twig.Query, own []Example, all []Example) bool {
	sel := &selection{eval: q.Eval}
	for _, e := range own {
		if !sel.selects(e) {
			return false
		}
	}
	for _, e := range all {
		if !e.Positive && sel.selects(e) {
			return false
		}
	}
	return true
}
