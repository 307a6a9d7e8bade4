package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
)

func toyConfig(t *testing.T, workload string, trace int) config {
	dir := t.TempDir()
	return config{workload: workload, seed: 7, seconds: 1, trace: trace, clients: 1, toy: true,
		workDir: dir + "/run", spanDir: dir + "/spans"}
}

// runToy runs one toy-sized workload and fails the test unless every check
// passed.
func runToy(t *testing.T, workload string, trace int) *result {
	t.Helper()
	res, err := runWorkload(toyConfig(t, workload, trace), io.Discard)
	if err != nil {
		t.Fatalf("%s trace=%d: %v", workload, trace, err)
	}
	if res.failed != 0 || res.attempted < 1 {
		t.Fatalf("%s trace=%d: %d of %d failed: %v", workload, trace, res.failed, res.attempted, res.problems)
	}
	return res
}

// TestCountsRepeat runs every workload at toy size twice untraced and twice
// traced, and checks that every declared metric is measured and that the
// counts the benchmark promises to repeat exactly for a seed do, traced or
// not.
func TestCountsRepeat(t *testing.T) {
	for workload := range workloads {
		t.Run(workload, func(t *testing.T) {
			u1, u2 := runToy(t, workload, 0), runToy(t, workload, 0)
			t1, t2 := runToy(t, workload, 1), runToy(t, workload, 1)
			for _, name := range endToEnd {
				if _, ok := u1.metrics[name]; !ok {
					t.Errorf("untraced run lacks %s", name)
				}
			}
			for _, name := range perLayer() {
				if _, ok := t1.layers[name]; !ok {
					t.Errorf("traced run lacks %s", name)
				}
			}
			for _, r := range []*result{u2, t1, t2} {
				if got, want := r.metrics["questions_per_dialogue"].Value, u1.metrics["questions_per_dialogue"].Value; got != want {
					t.Errorf("questions_per_dialogue differs between runs: %v vs %v", want, got)
				}
			}
			for _, name := range []string{"codec.bytes_per_event", "plan.decisions_per_dialogue", "plan.early_stops_per_dialogue"} {
				if a, b := t1.layers[name].Value, t2.layers[name].Value; a != b {
					t.Errorf("%s differs between traced runs: %v vs %v", name, a, b)
				}
			}
		})
	}
}

// TestOutputContract checks the command's last output line against
// BENCHMARK.json: exactly the keys correct, attempted, failed and metrics,
// and in metrics every metric the file declares for the mode, with its unit.
func TestOutputContract(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	for trace, declared := range map[string][]struct{ Name, Unit string }{"0": decl.EndToEnd, "1": decl.PerLayer} {
		var stdout, stderr bytes.Buffer
		dir := t.TempDir()
		code := run([]string{"--workload", "crowd-mix", "--seed", "3", "--seconds", "1", "--trace", trace,
			"--toy", "--workdir", dir + "/run", "--spans", dir + "/spans"}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("trace=%s: exit %d\n%s\n%s", trace, code, stdout.String(), stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var out map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
			t.Fatalf("trace=%s: last line is not JSON: %v", trace, err)
		}
		if len(out) != 4 || out["correct"] == nil || out["attempted"] == nil || out["failed"] == nil || out["metrics"] == nil {
			t.Fatalf("trace=%s: keys %v", trace, out)
		}
		var metrics map[string]metric
		if err := json.Unmarshal(out["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		if len(metrics) != len(declared) {
			t.Errorf("trace=%s: %d metrics, BENCHMARK.json declares %d", trace, len(metrics), len(declared))
		}
		for _, d := range declared {
			if m, ok := metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("trace=%s: metric %s: got %+v, BENCHMARK.json declares unit %q", trace, d.Name, m, d.Unit)
			}
		}
	}
}

func TestRefusesMoreClientsThanCores(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "crowd-mix", "--clients", "100000"}, &stdout, &stderr); code == 0 {
		t.Fatal("a run with more load goroutines than cores started")
	}
	if stdout.Len() != 0 {
		t.Fatalf("a refused run printed a result: %s", stdout.String())
	}
}
