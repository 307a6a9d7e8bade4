package querylearn_test

// One benchmark per experiment table (T1–T10, F1; README.md, "Benchmarks and
// experiments") measuring the hot path behind each table, plus ablation
// benches that pit an optimized algorithm against its simpler alternative.
// The tables themselves are produced by cmd/benchrunner; these benches give
// ns/op and allocs for the underlying operations.

import (
	"fmt"
	"math/rand"
	"testing"

	"querylearn/internal/crowd"
	"querylearn/internal/experiments"
	"querylearn/internal/graph"
	"querylearn/internal/graphlearn"
	"querylearn/internal/relational"
	"querylearn/internal/rellearn"
	"querylearn/internal/schema"
	"querylearn/internal/schemalearn"
	"querylearn/internal/twig"
	"querylearn/internal/twiglearn"
	"querylearn/internal/xmark"
	"querylearn/internal/xmltree"
)

// --- T1: twig learning from examples ---

func BenchmarkT1ExamplesToConvergence(b *testing.B) {
	goal := twig.MustParseQuery("/site/people/person[address]/name")
	docs := []*xmltree.Node{
		xmark.Generate(1, xmark.ScaleConfig(2)),
		xmark.Generate(2, xmark.ScaleConfig(2)),
	}
	exs := twiglearn.ExamplesFromQuery(goal, docs)
	if len(exs) == 0 {
		b.Skip("no examples on these seeds")
	}
	opts := twiglearn.DefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := twiglearn.Learn(exs[:2], opts); err != nil {
			b.Fatal(err)
		}
	}
}

// --- T2: XPathMark catalog evaluation ---

func BenchmarkT2XPathMarkCoverage(b *testing.B) {
	doc := xmark.Generate(3, xmark.ScaleConfig(4))
	queries := xmark.TwigQueries()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			_ = q.Eval(doc)
		}
	}
}

// --- T3: schema-aware learning ---

func BenchmarkT3Overspecialization(b *testing.B) {
	goal := twig.MustParseQuery("/site/people/person/name")
	docs := []*xmltree.Node{
		xmark.Generate(1, xmark.ScaleConfig(2)),
		xmark.Generate(2, xmark.ScaleConfig(2)),
	}
	exs := twiglearn.ExamplesFromQuery(goal, docs)
	s := xmark.Schema()
	for _, withSchema := range []bool{false, true} {
		name := "plain"
		if withSchema {
			name = "schema"
		}
		b.Run(name, func(b *testing.B) {
			opts := twiglearn.Options{UseFilters: true, MaxFilterDepth: 3}
			if withSchema {
				opts.Schema = s
			}
			for i := 0; i < b.N; i++ {
				if _, err := twiglearn.Learn(exs, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- T4: containment ---

func BenchmarkT4SchemaContainment(b *testing.B) {
	for _, n := range []int{10, 40, 160} {
		tight, loose := experiments.RandomDMSPair(int64(n), n)
		b.Run(fmt.Sprintf("DMS-%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				schema.Contained(tight, loose)
			}
		})
	}
	for _, k := range []int{4, 8} {
		r1, r2 := experiments.HardRegexPair(k)
		b.Run(fmt.Sprintf("regex-%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				schema.RegexContained(r1, r2)
			}
		})
	}
}

// --- T5: satisfiability and implication ---

func BenchmarkT5SatImplication(b *testing.B) {
	for _, n := range []int{50, 200} {
		s := experiments.ChainSchema(n)
		q := twig.MustParseQuery(fmt.Sprintf("/c0//c%d[s%d]", n/2, n/2))
		b.Run(fmt.Sprintf("sat-%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				schema.Satisfiable(q, s)
			}
		})
		branch := &twig.Node{Label: fmt.Sprintf("c%d", n-1), Axis: twig.Descendant}
		b.Run(fmt.Sprintf("implied-%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				schema.Implied(branch, "c0", s)
			}
		})
	}
}

// --- T6: consistency join vs semijoin ---

func BenchmarkT6ConsistencyJoinVsSemijoin(b *testing.B) {
	for _, k := range []int{4, 8} {
		l, r := experiments.RandomJoinInstance(int64(k)*7, k, 16, 2)
		u := rellearn.NewUniverse(l, r)
		rng := rand.New(rand.NewSource(int64(k)))
		var joinExs []rellearn.JoinExample
		for i := 0; i < 8; i++ {
			joinExs = append(joinExs, rellearn.JoinExample{
				Left: rng.Intn(l.Len()), Right: rng.Intn(r.Len()), Positive: rng.Intn(2) == 0})
		}
		var semiExs []rellearn.SemijoinExample
		for i := 0; i < l.Len(); i++ {
			semiExs = append(semiExs, rellearn.SemijoinExample{Left: i, Positive: rng.Intn(2) == 0})
		}
		b.Run(fmt.Sprintf("join-%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rellearn.JoinConsistent(u, joinExs)
			}
		})
		b.Run(fmt.Sprintf("semijoin-%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, _, err := rellearn.SemijoinConsistent(u, semiExs, 1<<22); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- T6b: semijoin consistency, retained naive search vs interned/bitset
// search (the tentpole's rellearn half) ---

func BenchmarkT6SemijoinExactNaiveVsFast(b *testing.B) {
	for _, k := range []int{4, 8} {
		l, r := experiments.RandomJoinInstance(int64(k)*7, k, 16, 2)
		rng := rand.New(rand.NewSource(int64(k)))
		var exs []rellearn.SemijoinExample
		for i := 0; i < l.Len(); i++ {
			exs = append(exs, rellearn.SemijoinExample{Left: i, Positive: rng.Intn(2) == 0})
		}
		b.Run(fmt.Sprintf("naive-%d", k), func(b *testing.B) {
			u := rellearn.NewUniverse(l, r)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, _, err := rellearn.SemijoinConsistentNaive(u, exs, 1<<22); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("fast-%d", k), func(b *testing.B) {
			u := rellearn.NewUniverse(l, r)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, _, err := rellearn.SemijoinConsistent(u, exs, 1<<22); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- T8b: all-pairs path evaluation, retained naive product BFS vs the
// CSR/bitset parallel evaluator (the tentpole's graph half) ---

func BenchmarkT8EvalAllPairsNaiveVsFast(b *testing.B) {
	for _, n := range []int{60, 240} {
		g := graph.GenerateGeo(int64(n), n)
		q := graph.MustParsePathQuery("highway.road*")
		b.Run(fmt.Sprintf("naive-%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = g.EvalNaive(q)
			}
		})
		b.Run(fmt.Sprintf("fast-%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = g.Eval(q)
			}
		})
	}
}

// --- T7: interactive join learning ---

func BenchmarkT7Interactions(b *testing.B) {
	l, r := experiments.RandomJoinInstance(60, 4, 20, 3)
	u := rellearn.NewUniverse(l, r)
	goal, err := u.Encode([]relational.AttrPair{{Left: "a0", Right: "b0"}, {Left: "a1", Right: "b1"}})
	if err != nil {
		b.Fatal(err)
	}
	oracle := rellearn.GoalOracle{U: u, Goal: goal}
	for _, strat := range []rellearn.Strategy{rellearn.MaxAgreeStrategy{}, rellearn.HalfSplitStrategy{}} {
		b.Run(strat.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := rellearn.Run(u, oracle, strat); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- T8: interactive path learning ---

func BenchmarkT8GraphInteractions(b *testing.B) {
	g := graph.GenerateGeo(11, 60)
	goal := graph.MustParsePathQuery("highway.road*")
	var seed graph.Pair
	found := false
	for _, p := range g.Eval(goal) {
		w := g.ShortestWord(p.Src, p.Dst)
		if len(w) >= 3 && w[0] == "highway" {
			ok := true
			for _, l := range w[1:] {
				if l != "road" {
					ok = false
					break
				}
			}
			if ok {
				seed, found = p, true
				break
			}
		}
	}
	if !found {
		b.Skip("no suitable seed")
	}
	pool := graphlearn.DefaultPool(g, 4, 500)
	oracle := graphlearn.GoalOracle{G: g, Goal: goal}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := graphlearn.Run(g, seed, pool, oracle, graphlearn.SplitStrategy{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- T9: crowd cost ---

func BenchmarkT9CrowdCost(b *testing.B) {
	l, r := experiments.RandomJoinInstance(99, 4, 15, 3)
	u := rellearn.NewUniverse(l, r)
	goal, err := u.Encode([]relational.AttrPair{{Left: "a0", Right: "b0"}})
	if err != nil {
		b.Fatal(err)
	}
	cfg := crowd.Config{CostPerHIT: 0.05, WorkerErrorRate: 0.1, VotesPerQuestion: 5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := crowd.RunJoin(u, goal, rellearn.MaxAgreeStrategy{}, cfg, rand.New(rand.NewSource(int64(i)))); err != nil {
			b.Fatal(err)
		}
	}
}

// --- T10: schema learning ---

func BenchmarkT10SchemaLearning(b *testing.B) {
	goal := xmark.Schema()
	rng := rand.New(rand.NewSource(1))
	docs := make([]*xmltree.Node, 20)
	for i := range docs {
		docs[i] = goal.Generate(rng, 6)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := schemalearn.Learn(docs); err != nil {
			b.Fatal(err)
		}
	}
}

// --- F1: exchange scenarios ---

func BenchmarkF1ExchangeScenarios(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.F1ExchangeScenarios()
	}
}

// --- Ablations: optimized algorithms against their simpler alternatives ---

// DMS containment: structural PTIME algorithm vs the brute-force bag
// enumerator used as its correctness oracle.
func BenchmarkAblationDMSContainment(b *testing.B) {
	e := schema.MustExpr(
		schema.Disjunct{"a": schema.M1, "b": schema.MOpt, "c": schema.MStar},
		schema.Disjunct{"d": schema.MPlus, "e": schema.MOpt})
	f := schema.MustExpr(
		schema.Disjunct{"a": schema.MOpt, "b": schema.MStar, "c": schema.MStar},
		schema.Disjunct{"d": schema.MStar, "e": schema.MStar})
	b.Run("ptime", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			schema.ExprContained(e, f)
		}
	})
	b.Run("brute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			schema.ExprContainedBrute(e, f)
		}
	})
}

// Semijoin: exact backtracking vs greedy approximation.
func BenchmarkAblationSemijoinGreedy(b *testing.B) {
	l, r := experiments.RandomJoinInstance(7, 6, 16, 2)
	u := rellearn.NewUniverse(l, r)
	rng := rand.New(rand.NewSource(3))
	var exs []rellearn.SemijoinExample
	for i := 0; i < l.Len(); i++ {
		exs = append(exs, rellearn.SemijoinExample{Left: i, Positive: rng.Intn(2) == 0})
	}
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, _, err := rellearn.SemijoinConsistent(u, exs, 1<<22); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rellearn.SemijoinGreedy(u, exs)
		}
	})
}

// Twig learner: minimization on vs off.
func BenchmarkAblationTwigMinimize(b *testing.B) {
	goal := twig.MustParseQuery("//person[address]/name")
	docs := []*xmltree.Node{
		xmark.Generate(5, xmark.ScaleConfig(1)),
		xmark.Generate(6, xmark.ScaleConfig(1)),
	}
	exs := twiglearn.ExamplesFromQuery(goal, docs)
	if len(exs) == 0 {
		b.Skip("no examples")
	}
	for _, min := range []bool{false, true} {
		name := "raw"
		if min {
			name = "minimized"
		}
		b.Run(name, func(b *testing.B) {
			opts := twiglearn.DefaultOptions()
			opts.Minimize = min
			for i := 0; i < b.N; i++ {
				if _, err := twiglearn.Learn(exs, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Interactive join learning: uninformative-tuple pruning is what separates
// the question count from the full pair count; compare a strategy-driven
// run against exhaustively labeling every pair.
func BenchmarkAblationPruningVsExhaustive(b *testing.B) {
	l, r := experiments.RandomJoinInstance(42, 3, 15, 3)
	u := rellearn.NewUniverse(l, r)
	goal, err := u.Encode([]relational.AttrPair{{Left: "a0", Right: "b0"}})
	if err != nil {
		b.Fatal(err)
	}
	oracle := rellearn.GoalOracle{U: u, Goal: goal}
	b.Run("pruned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := rellearn.Run(u, oracle, rellearn.MaxAgreeStrategy{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("exhaustive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// Label every pair: the no-pruning baseline.
			var exs []rellearn.JoinExample
			for li := 0; li < l.Len(); li++ {
				for ri := 0; ri < r.Len(); ri++ {
					exs = append(exs, rellearn.JoinExample{
						Left: li, Right: ri, Positive: oracle.LabelPair(li, ri)})
				}
			}
			if _, ok := rellearn.JoinConsistent(u, exs); !ok {
				b.Fatal("inconsistent")
			}
		}
	})
}

// Filter mining window: unrestricted (the overspecializing learner T3
// measures) vs anchored-near-output (the default).
func BenchmarkAblationFilterWindow(b *testing.B) {
	goal := twig.MustParseQuery("/site/people/person/name")
	docs := []*xmltree.Node{
		xmark.Generate(1, xmark.ScaleConfig(2)),
		xmark.Generate(2, xmark.ScaleConfig(2)),
	}
	exs := twiglearn.ExamplesFromQuery(goal, docs)
	for _, window := range []int{0, 2} {
		name := "unrestricted"
		if window > 0 {
			name = fmt.Sprintf("window-%d", window)
		}
		b.Run(name, func(b *testing.B) {
			opts := twiglearn.DefaultOptions()
			opts.FilterWindow = window
			for i := 0; i < b.N; i++ {
				if _, err := twiglearn.Learn(exs, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// PAC learning: approximate hypothesis at varying error budgets.
func BenchmarkPACLearning(b *testing.B) {
	goal := twig.MustParseQuery("/site/people/person[address]/name")
	var pool []twiglearn.Example
	for i := 0; i < 3; i++ {
		doc := xmark.Generate(int64(i+1), xmark.ScaleConfig(1))
		sel := map[*xmltree.Node]bool{}
		for _, n := range goal.Eval(doc) {
			sel[n] = true
		}
		doc.Walk(func(n *xmltree.Node) bool {
			if sel[n] {
				pool = append(pool, twiglearn.Example{Doc: doc, Node: n, Positive: true})
			} else if n.Label == "name" {
				pool = append(pool, twiglearn.Example{Doc: doc, Node: n, Positive: false})
			}
			return true
		})
	}
	if len(pool) == 0 {
		b.Skip("empty pool")
	}
	for _, eps := range []float64{0.2, 0.05} {
		b.Run(fmt.Sprintf("eps-%v", eps), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := twiglearn.LearnPAC(pool, eps, 0.1, twiglearn.DefaultOptions(), rand.New(rand.NewSource(int64(i)))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Union-of-twigs learning (the paper's richer class).
func BenchmarkUnionLearning(b *testing.B) {
	doc := xmltree.MustParse(`<shop><item><title/><price/></item><item><title/></item></shop>`)
	exs := []twiglearn.Example{
		{Doc: doc, Node: doc.Children[0].Children[0], Positive: true},
		{Doc: doc, Node: doc.Children[0].Children[1], Positive: true},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := twiglearn.LearnUnion(exs, twiglearn.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// Approximate semijoin learning with annotation dropping.
func BenchmarkSemijoinApprox(b *testing.B) {
	l, r := experiments.RandomJoinInstance(3, 4, 20, 2)
	u := rellearn.NewUniverse(l, r)
	rng := rand.New(rand.NewSource(4))
	var exs []rellearn.SemijoinExample
	for i := 0; i < l.Len(); i++ {
		exs = append(exs, rellearn.SemijoinExample{Left: i, Positive: rng.Intn(2) == 0})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rellearn.SemijoinApprox(u, exs)
	}
}
