package twiglearn

import (
	"math/rand"
	"testing"

	"querylearn/internal/twig"
	"querylearn/internal/xmltree"
)

// consistentOracle is the per-example definition Consistent must match: one
// full evaluation of q for every example.
func consistentOracle(q twig.Query, examples []Example) bool {
	for _, e := range examples {
		if q.Selects(e.Doc, e.Node) != e.Positive {
			return false
		}
	}
	return true
}

// consistentUnionOracle is the per-example definition ConsistentUnion must
// match.
func consistentUnionOracle(u UnionQuery, examples []Example) bool {
	for _, e := range examples {
		if u.Selects(e.Doc, e.Node) != e.Positive {
			return false
		}
	}
	return true
}

// randQuery builds a random twig pattern of up to five nodes over the
// property-test labels plus the wildcard, with a random output node.
func randQuery(rng *rand.Rand) twig.Query {
	labels := append([]string{twig.Wildcard}, propLabels...)
	axis := func() twig.Axis {
		if rng.Intn(2) == 0 {
			return twig.Child
		}
		return twig.Descendant
	}
	nodes := []*twig.Node{twig.NewNode(labels[rng.Intn(len(labels))], axis())}
	for n := rng.Intn(5); n > 0; n-- {
		c := twig.NewNode(labels[rng.Intn(len(labels))], axis())
		nodes[rng.Intn(len(nodes))].Add(c)
		nodes = append(nodes, c)
	}
	nodes[rng.Intn(len(nodes))].Output = true
	return twig.Query{Root: nodes[0]}
}

// interleavedExamples labels random nodes of docs in round-robin order
// (A, B, A, B, ...), with the label truth reports. With probability one
// half one example's label is flipped, so both verdicts are exercised, and
// some nodes are labeled twice.
func interleavedExamples(rng *rand.Rand, docs []*xmltree.Node, truth func(doc, n *xmltree.Node) bool) []Example {
	var exs []Example
	for i := 0; i < 3+rng.Intn(8); i++ {
		d := docs[i%len(docs)]
		nodes := d.Nodes()
		n := nodes[rng.Intn(len(nodes))]
		exs = append(exs, Example{Doc: d, Node: n, Positive: truth(d, n)})
	}
	if rng.Intn(2) == 0 {
		i := rng.Intn(len(exs))
		exs[i].Positive = !exs[i].Positive
	}
	return exs
}

// randDocs returns two random documents plus a structural twin of the
// first: a separate tree equal to it node for node, so a selection keyed on
// anything but the document pointer would answer for the wrong tree.
func randDocs(rng *rand.Rand) []*xmltree.Node {
	a, b := genDoc(rng.Int63(), 3), genDoc(rng.Int63(), 3)
	return []*xmltree.Node{a, b, a.Clone()}
}

func TestConsistentMatchesPerExampleOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	verdicts := map[bool]int{}
	for trial := 0; trial < 2000; trial++ {
		docs := randDocs(rng)
		q := randQuery(rng)
		exs := interleavedExamples(rng, docs, func(d, n *xmltree.Node) bool {
			if rng.Intn(4) == 0 {
				return rng.Intn(2) == 0
			}
			return q.Selects(d, n)
		})
		want := consistentOracle(q, exs)
		if got := Consistent(q, exs); got != want {
			t.Fatalf("trial %d: Consistent(%s) = %v, oracle %v", trial, q, got, want)
		}
		verdicts[want]++
	}
	if verdicts[true] < 100 || verdicts[false] < 100 {
		t.Fatalf("property test exercised too few of each verdict: %v", verdicts)
	}
}

func TestConsistentUnionMatchesPerExampleOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	verdicts := map[bool]int{}
	for trial := 0; trial < 2000; trial++ {
		docs := randDocs(rng)
		var u UnionQuery
		for m := 1 + rng.Intn(3); m > 0; m-- {
			u.Members = append(u.Members, randQuery(rng))
		}
		exs := interleavedExamples(rng, docs, func(d, n *xmltree.Node) bool {
			if rng.Intn(4) == 0 {
				return rng.Intn(2) == 0
			}
			return u.Selects(d, n)
		})
		want := consistentUnionOracle(u, exs)
		if got := ConsistentUnion(u, exs); got != want {
			t.Fatalf("trial %d: ConsistentUnion(%s) = %v, oracle %v", trial, u, got, want)
		}
		verdicts[want]++
	}
	if verdicts[true] < 100 || verdicts[false] < 100 {
		t.Fatalf("property test exercised too few of each verdict: %v", verdicts)
	}
}

// TestSelectionEvaluatesOncePerDocument pins the cost model: examples on
// documents A, B, A cost two evaluations, not three.
func TestSelectionEvaluatesOncePerDocument(t *testing.T) {
	a := xmltree.MustParse(`<a><b/><b/></a>`)
	b := xmltree.MustParse(`<a><c/></a>`)
	q := twig.MustParseQuery("//b")
	evals := 0
	sel := &selection{eval: func(d *xmltree.Node) []*xmltree.Node {
		evals++
		return q.Eval(d)
	}}
	exs := []Example{
		{Doc: a, Node: a.Children[0], Positive: true},
		{Doc: b, Node: b.Children[0], Positive: false},
		{Doc: a, Node: a.Children[1], Positive: true},
	}
	if !consistentWith(sel, exs) {
		t.Fatal("//b must label every example correctly")
	}
	if evals != 2 {
		t.Fatalf("%d evaluations over two distinct documents, want 2", evals)
	}
}
