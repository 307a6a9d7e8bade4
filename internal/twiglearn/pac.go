package twiglearn

import (
	"fmt"
	"math"
	"math/rand"

	"querylearn/internal/twig"
)

// Approximate (PAC-style) learning — the paper's answer to the
// NP-completeness of consistency with negative examples: "Since learning
// twig queries from positive and negative examples is intractable in
// general, we intend to study an approximate learning framework, such as
// PAC. In this setting, the learned query may select some negative
// examples and omit some positive ones." (§2)
//
// LearnPAC draws the PAC sample size m >= (1/epsilon)(ln|H| + ln(1/delta))
// from the provided example pool, runs the (cheap) positives-only learner
// on the sampled positives, and returns the hypothesis together with its
// empirical error on the whole pool. The hypothesis-class size |H| is
// bounded by the candidate space of sub-path queries of the first
// positive's selecting path with the mined filter pool (the same space
// FindConsistent searches exactly).

// PACResult reports an approximate learning outcome.
type PACResult struct {
	Query twig.Query
	// SampleSize is the number of examples the PAC bound requested.
	SampleSize int
	// TrainError is the error of the hypothesis on the sampled examples.
	TrainError float64
	// EmpiricalError is the error over the full example pool: the
	// fraction of examples the hypothesis labels against their
	// annotation (selected negatives + omitted positives).
	EmpiricalError float64
}

// LearnPAC learns a twig query approximately: with probability >= 1-delta
// (over the sampling) the returned hypothesis has error <= epsilon on the
// distribution the pool represents, provided a consistent hypothesis
// exists in the candidate class. It never fails on inconsistent pools —
// that is the point of the approximate setting — but it does require at
// least one positive example in the pool.
func LearnPAC(pool []Example, epsilon, delta float64, opts Options, rng *rand.Rand) (PACResult, error) {
	if epsilon <= 0 || epsilon >= 1 || delta <= 0 || delta >= 1 {
		return PACResult{}, fmt.Errorf("twiglearn: need 0 < epsilon, delta < 1")
	}
	pos, _ := Split(pool)
	if len(pos) == 0 {
		return PACResult{}, fmt.Errorf("twiglearn: need at least one positive example")
	}
	// Hypothesis-class size: sub-path queries of the first positive's
	// selecting path (2^(k-1) position subsets) times filter on/off.
	k := len(pos[0].Node.LabelsFromRoot())
	lnH := float64(k) * math.Ln2
	m := int(math.Ceil((lnH + math.Log(1/delta)) / epsilon))
	if m < 1 {
		m = 1
	}
	// Sample with replacement; always include one positive so the
	// learner has an anchor.
	sample := []Example{pos[rng.Intn(len(pos))]}
	for len(sample) < m {
		sample = append(sample, pool[rng.Intn(len(pool))])
	}
	sPos, _ := Split(sample)
	if len(sPos) == 0 {
		sPos = pos[:1]
	}
	// Learn from sampled positives only (polynomial), then try the exact
	// bounded search on the sample; fall back to the positives-only
	// hypothesis when the search fails — the approximate setting keeps
	// whatever errs least on the sample.
	posOnly := make([]Example, len(sPos))
	copy(posOnly, sPos)
	h, err := Learn(posOnly, opts)
	if err != nil {
		return PACResult{}, err
	}
	if exact, err := FindConsistent(sample, opts, 5000); err == nil {
		if errorOn(exact, sample) <= errorOn(h, sample) {
			h = exact
		}
	}
	return PACResult{
		Query:          h,
		SampleSize:     m,
		TrainError:     errorOn(h, sample),
		EmpiricalError: errorOn(h, pool),
	}, nil
}

// errorOn returns the fraction of examples whose annotation the query
// violates.
func errorOn(q twig.Query, examples []Example) float64 {
	if len(examples) == 0 {
		return 0
	}
	sel := &selection{eval: q.Eval}
	wrong := 0
	for _, e := range examples {
		if sel.selects(e) != e.Positive {
			wrong++
		}
	}
	return float64(wrong) / float64(len(examples))
}

// EmpiricalError exposes errorOn for callers evaluating hypotheses.
func EmpiricalError(q twig.Query, examples []Example) float64 { return errorOn(q, examples) }
