package main

import (
	"fmt"
	"math/rand"
	"strings"

	"querylearn/internal/core"
	"querylearn/internal/graph"
	"querylearn/internal/loadgen"
	"querylearn/internal/xmark"
	"querylearn/internal/xmltree"
	"querylearn/pkg/api"
)

// template is one dialogue the crowd runs: the seed task the program
// receives, the oracle that labels its questions, the batch-learned goal the
// dialogue must converge to, and how many questions one fetch asks for.
type template struct {
	name   string
	model  string
	task   string
	oracle loadgen.Oracle
	goal   string
	batch  int
}

// prepare batch-learns a full task's goal (the paper's simulation protocol:
// the batch learner plays the user) and returns the dialogue template.
func prepare(name, model, fullTask string, batch int) (template, error) {
	seedTask, oracle, goal, err := loadgen.PrepareOracle(model, fullTask)
	if err != nil {
		return template{}, fmt.Errorf("%s: %w", name, err)
	}
	return template{name: name, model: model, task: seedTask, oracle: oracle, goal: goal, batch: batch}, nil
}

// label answers a batch of questions with the template's oracle, as the
// crowd worker who plays the user would.
func (tp *template) label(qs []api.Question) ([]api.Answer, error) {
	answers := make([]api.Answer, len(qs))
	for i, q := range qs {
		v, err := tp.oracle(q.Item)
		if err != nil {
			return nil, fmt.Errorf("%s oracle: %w", tp.name, err)
		}
		answers[i] = api.Answer{Item: q.Item, Positive: v}
	}
	return answers, nil
}

// fixtureTemplates are loadgen's four built-in dialogues (about three labels
// each): the learners do almost no work on them.
func fixtureTemplates() ([]template, error) {
	ws, err := loadgen.Builtin()
	if err != nil {
		return nil, err
	}
	out := make([]template, len(ws))
	for i, w := range ws {
		out[i] = template{name: "fixture-" + w.Model, model: w.Model, task: w.Task,
			oracle: w.Oracle, goal: w.Goal, batch: 1}
	}
	return out, nil
}

// size scales the learn-large instances; the benchmark's tests use toySize.
// The full sizes follow the repo's own experiments (see README.md beside
// this file): a geo graph of a few thousand cities, below T14's 6000-node
// smoke graph; T7's largest join instance (80 tuples a side) doubled, at a
// width inside T6's range of 4-10 attributes; T1's and T3's xmark scale 2;
// one of T4's schema sizes; and 16 questions per fetch, the parallel crowd
// dispatch of T13 and of `querylearnd -batch 16`.
type size struct {
	pathNodes  int // cities in the geo graph
	joinRows   int // tuples per relation
	joinAttrs  int // attributes per relation
	xmarkScale int // xmark.ScaleConfig factor
	schemaWide int // distinct child labels of the schema document
	batch      int // questions fetched per round-trip
}

var (
	fullSize = size{pathNodes: 3000, joinRows: 160, joinAttrs: 8, xmarkScale: 2, schemaWide: 20, batch: 16}
	toySize  = size{pathNodes: 300, joinRows: 12, joinAttrs: 4, xmarkScale: 1, schemaWide: 6, batch: 4}
)

// largeTemplates builds the learner-bound instances, one per model. Each
// instance's shape is drawn once from a fixed generator seed, and the
// workload seed only renames it (city names, relation values, which schema
// labels repeat): every seed serves an isomorphic instance of the same size,
// so the work per dialogue and the questions asked barely move across
// seeds, while the wire text of the questions does.
func largeTemplates(seed int64, sz size) ([]template, error) {
	rng := rand.New(rand.NewSource(seed))
	makers := []func(*rand.Rand, size) (template, error){largePath, largeJoin, largeTwig, largeSchema}
	out := make([]template, 0, len(makers))
	for _, mk := range makers {
		t, err := mk(rand.New(rand.NewSource(rng.Int63())), sz)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// shapeSeed fixes the structure of every learn-large instance.
const shapeSeed = 1

// largePath is a path dialogue on a geo graph whose cities the seed renames.
// The edge lines keep their order, so the cities are indexed, and the
// question pool drawn, exactly as for any other seed. The full task holds two positive pairs
// reached by highway.road+ words of different lengths, so the batch learner
// generalizes them to a starred goal.
func largePath(rng *rand.Rand, sz size) (template, error) {
	shape := rand.New(rand.NewSource(shapeSeed))
	for attempt := 0; attempt < 32; attempt++ {
		g := graph.GenerateGeo(shape.Int63(), sz.pathNodes)
		pairs := highwayRoadPairs(g, shape, 2)
		if len(pairs) < 2 {
			continue
		}
		perm := rng.Perm(g.NumNodes())
		name := func(i int) string { return fmt.Sprintf("city%d", perm[i]) }
		var b strings.Builder
		for _, e := range g.Triples() {
			fmt.Fprintf(&b, "edge %s %s %s\n", name(g.NodeIndex(e.From)), e.Label, name(g.NodeIndex(e.To)))
		}
		for _, p := range pairs {
			fmt.Fprintf(&b, "pos %s %s\n", name(p.Src), name(p.Dst))
		}
		return prepare("large-path", "path", b.String(), sz.batch)
	}
	return template{}, fmt.Errorf("large-path: no graph with two highway.road+ pairs")
}

// highwayRoadPairs finds want pairs whose shortest words are highway.road^k
// with distinct k in [1, 3], scanning sources in rng's order.
func highwayRoadPairs(g *graph.Graph, rng *rand.Rand, want int) []graph.Pair {
	var out []graph.Pair
	seen := map[int]bool{}
	for _, src := range rng.Perm(g.NumNodes()) {
		var hops []int
		g.Out(src, func(label string, to int) {
			if label == "highway" && to != src {
				hops = append(hops, to)
			}
		})
		for _, mid := range hops {
			cur := mid
			for k := 1; k <= 3; k++ {
				next := -1
				g.Out(cur, func(label string, to int) {
					if next < 0 && label == "road" && to != cur && to != src {
						next = to
					}
				})
				if next < 0 {
					break
				}
				cur = next
				w := g.ShortestWord(src, cur)
				if len(w) != k+1 || w[0] != "highway" || seen[k] || !allRoad(w[1:]) {
					continue
				}
				seen[k] = true
				out = append(out, graph.Pair{Src: src, Dst: cur})
				if len(out) == want {
					return out
				}
				break
			}
		}
	}
	return out
}

func allRoad(w []string) bool {
	for _, l := range w {
		if l != "road" {
			return false
		}
	}
	return true
}

// largeJoin is a join dialogue on two wider relations whose values the seed
// renames (one renaming for every attribute, so equalities are kept). The
// goal equates a0=b0 and a1=b1: the full task labels every
// pair that satisfies it positive.
func largeJoin(rng *rand.Rand, sz size) (template, error) {
	n, w := sz.joinRows, sz.joinAttrs
	shape := rand.New(rand.NewSource(shapeSeed))
	left := make([][]int, n)
	right := make([][]int, n)
	for i := range left {
		left[i] = make([]int, w)
		right[i] = make([]int, w)
		for a := 0; a < w; a++ {
			left[i][a] = shape.Intn(4)
			right[i][a] = shape.Intn(4)
		}
	}
	// Plant goal pairs: right row i copies left row perm(i) on a0, a1.
	perm := shape.Perm(n)
	for i := 0; i < n/2; i++ {
		right[i][0], right[i][1] = left[perm[i]][0], left[perm[i]][1]
	}
	names := rng.Perm(4)
	var b strings.Builder
	attrs := func(p string) string {
		names := make([]string, w)
		for a := range names {
			names[a] = fmt.Sprintf("%s%d", p, a)
		}
		return strings.Join(names, ",")
	}
	row := func(r []int) string {
		vs := make([]string, len(r))
		for a, v := range r {
			vs[a] = fmt.Sprintf("v%d", names[v])
		}
		return strings.Join(vs, ",")
	}
	fmt.Fprintf(&b, "left P %s\n", attrs("a"))
	for _, r := range left {
		fmt.Fprintf(&b, "lrow %s\n", row(r))
	}
	fmt.Fprintf(&b, "right O %s\n", attrs("b"))
	for _, r := range right {
		fmt.Fprintf(&b, "rrow %s\n", row(r))
	}
	for i, l := range left {
		for j, r := range right {
			if l[0] == r[0] && l[1] == r[1] {
				fmt.Fprintf(&b, "pos %d %d\n", i, j)
			}
		}
	}
	return prepare("large-join", "join", b.String(), sz.batch)
}

// largeTwig is a twig dialogue on an xmark auction document, seeded with
// one person's name node. The document is the same for every seed: every
// reordering of it that was tried moved the twig learner's work by half.
func largeTwig(_ *rand.Rand, sz size) (template, error) {
	shape := rand.New(rand.NewSource(shapeSeed))
	doc := xmark.Generate(shape.Int63(), xmark.ScaleConfig(sz.xmarkScale))
	people := findChild(doc, "people")
	if people == nil || len(people.Children) < 2 {
		return template{}, fmt.Errorf("large-twig: document has no people")
	}
	target := people.Children[shape.Intn(len(people.Children))]
	name := findChild(target, "name")
	if name == nil {
		return template{}, fmt.Errorf("large-twig: person without a name")
	}
	task := fmt.Sprintf("doc %s\npos 0 %s\n", doc.String(), core.NodePathOf(name))
	return prepare("large-twig", "twig", task, sz.batch)
}

// findChild is the first child of n labeled label, or nil.
func findChild(n *xmltree.Node, label string) *xmltree.Node {
	for _, c := range n.Children {
		if c.Label == label {
			return c
		}
	}
	return nil
}

// largeSchema is a schema dialogue on a wide document: the seed document
// has every label once, and the full task's second document repeats a
// seeded half of them (exactly half, so every seed asks as many questions),
// so the goal mixes exact and repeated multiplicities.
func largeSchema(rng *rand.Rand, sz size) (template, error) {
	var first, second strings.Builder
	first.WriteString("<r>")
	second.WriteString("<r>")
	repeated := map[int]bool{}
	for _, i := range rng.Perm(sz.schemaWide)[:sz.schemaWide/2] {
		repeated[i] = true
	}
	for i := 0; i < sz.schemaWide; i++ {
		fmt.Fprintf(&first, "<l%d/>", i)
		fmt.Fprintf(&second, "<l%d/>", i)
		if repeated[i] {
			fmt.Fprintf(&second, "<l%d/>", i)
		}
	}
	first.WriteString("</r>")
	second.WriteString("</r>")
	task := fmt.Sprintf("doc %s\ndoc %s\n", first.String(), second.String())
	return prepare("large-schema", "schema", task, sz.batch)
}
