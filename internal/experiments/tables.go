// Package experiments regenerates the paper's quantitative claims as
// tables. The paper (a PhD symposium proposal) has no numbered result
// tables; the reproduction reads eleven checkable claims (T1–T10, F1) out of
// its text and this package implements one experiment per claim.
// cmd/benchrunner prints the tables; bench_test.go measures the hot paths;
// the BENCH_PR*.json files record measured runs.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"querylearn/internal/obs"
)

// Table is one experiment's result: a titled grid with footnotes. The
// struct marshals to JSON for cmd/benchrunner's -json mode, which captures
// per-PR perf trajectories as BENCH_*.json files.
type Table struct {
	ID     string     `json:"id"`
	Title  string     `json:"title"`
	Claim  string     `json:"claim,omitempty"` // the paper's claim being checked
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	Notes  []string   `json:"notes,omitempty"`
	// ElapsedMS is the wall-clock time producing the table took — the
	// cheap per-experiment latency signal the JSON trajectories track.
	ElapsedMS float64 `json:"elapsed_ms"`
	// Latency carries labeled quantile distributions for experiments that
	// measure request latency: means alone hide the tail the crowd-learning
	// setting cares about, so T11/T13/T15/T16 publish p50/p99/p999 here.
	Latency []LatencyStat `json:"latency,omitempty"`
	// Mem carries labeled allocation benchmarks (testing.Benchmark) for
	// experiments that check memory claims: T17 publishes allocs/op and
	// bytes/op for the POST answers path here.
	Mem []MemStat `json:"mem,omitempty"`
}

// MemStat is one labeled allocation benchmark result.
type MemStat struct {
	Label       string  `json:"label"`
	N           int     `json:"n"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// LatencyStat is one labeled latency distribution, summarized from an
// internal/obs histogram.
type LatencyStat struct {
	Label       string  `json:"label"`
	Count       int64   `json:"count"`
	MeanSeconds float64 `json:"mean_seconds"`
	P50Seconds  float64 `json:"p50_seconds"`
	P99Seconds  float64 `json:"p99_seconds"`
	P999Seconds float64 `json:"p999_seconds"`
	MaxSeconds  float64 `json:"max_seconds"`
}

// latencyStat summarizes a histogram snapshot under a label.
func latencyStat(label string, s obs.HistogramSnapshot) LatencyStat {
	return LatencyStat{
		Label:       label,
		Count:       int64(s.Count),
		MeanSeconds: obs.Round6(s.Mean()),
		P50Seconds:  obs.Round6(s.Quantile(0.50)),
		P99Seconds:  obs.Round6(s.Quantile(0.99)),
		P999Seconds: obs.Round6(s.Quantile(0.999)),
		MaxSeconds:  obs.Round6(s.MaxSeconds),
	}
}

// Render formats the table for terminal output.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	if t.Claim != "" {
		fmt.Fprintf(&b, "paper claim: %s\n", t.Claim)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Experiment pairs a claim id with its runner, so callers (cmd/benchrunner's
// -only flag, make bench-t14) can run a selection without paying for the
// rest.
type Experiment struct {
	ID  string
	Run func(scale int) *Table
}

// Registry lists every experiment in claim order.
func Registry() []Experiment {
	return []Experiment{
		{"T1", T1ExamplesToConvergence},
		{"T2", T2XPathMarkCoverage},
		{"T3", T3Overspecialization},
		{"T4", T4SchemaContainment},
		{"T5", T5SatImplication},
		{"T6", T6ConsistencyJoinVsSemijoin},
		{"T7", T7Interactions},
		{"T8", T8GraphInteractions},
		{"T9", T9CrowdCost},
		{"T10", T10SchemaLearning},
		{"T11", T11ServiceThroughput},
		{"T12", T12Durability},
		{"T13", T13BatchDialogues},
		{"F1", func(int) *Table { return F1ExchangeScenarios() }},
		{"T14", T14BigGraphSessions},
		{"T15", T15FaultAvailability},
		{"T16", T16SaturationCurve},
		{"T17", T17CodecRecovery},
		{"T18", T18ClusterFailover},
		{"T19", T19PlannedEvaluation},
	}
}

// Run executes one registered experiment, stamping its wall-clock cost.
func (e Experiment) run(scale int) *Table {
	start := time.Now()
	t := e.Run(scale)
	t.ElapsedMS = float64(time.Since(start).Nanoseconds()) / 1e6
	return t
}

// All runs every experiment at the given scale (1 = quick, larger = more
// thorough) and returns the tables in claim order, each stamped with its
// wall-clock cost.
func All(scale int) []*Table {
	return Only(nil, scale)
}

// Only runs the experiments whose ids are listed (nil or empty = all), in
// claim order.
func Only(ids []string, scale int) []*Table {
	want := map[string]bool{}
	for _, id := range ids {
		want[strings.ToUpper(strings.TrimSpace(id))] = true
	}
	var out []*Table
	for _, e := range Registry() {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		out = append(out, e.run(scale))
	}
	return out
}
