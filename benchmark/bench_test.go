package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestHarness guards the instrument without running the long loads: every
// workload at -quick size must emit every metric BENCHMARK.json names,
// with its unit, and the traced ledger must account for its window.
func TestHarness(t *testing.T) {
	var decl benchmarkFile
	if err := readJSON("../BENCHMARK.json", &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, layerMetrics %d", len(decl.PerLayer), len(layerMetrics))
	}
	for i, lm := range layerMetrics {
		if d := decl.PerLayer[i]; d.Name != lm.name || d.Unit != lm.unit || d.Better != lm.better {
			t.Errorf("per_layer[%d] = %+v, layerMetrics has %+v", i, d, lm)
		}
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness %d", len(decl.Workloads), len(workloads))
	}

	// The ipc and tcp ranks re-execute the binary, so the harness is
	// driven as a program, not called as functions.
	dir := t.TempDir()
	bin := filepath.Join(dir, "benchmark")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	run := func(workload, trace string) output {
		cmd := exec.Command(bin, "--workload", workload, "--seed", "3", "--seconds", "0.4", "--trace", trace, "-quick", "-out", dir)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		stdout, err := cmd.Output()
		if err != nil {
			t.Fatalf("%s trace %s: %v\n%s", workload, trace, err, stderr.String())
		}
		var last []byte
		for sc := bufio.NewScanner(bytes.NewReader(stdout)); sc.Scan(); {
			last = append(last[:0], sc.Bytes()...)
		}
		var out output
		if err := json.Unmarshal(last, &out); err != nil {
			t.Fatalf("%s trace %s: last line %q: %v", workload, trace, last, err)
		}
		if !out.Correct || out.Attempted < 1 || out.Failed != 0 {
			t.Errorf("%s trace %s: correct=%v attempted=%d failed=%d", workload, trace, out.Correct, out.Attempted, out.Failed)
		}
		return out
	}
	for _, w := range decl.Workloads {
		out := run(w.Name, "0")
		if len(out.Metrics) != len(decl.EndToEnd) {
			t.Errorf("%s: %d end-to-end metrics, want %d", w.Name, len(out.Metrics), len(decl.EndToEnd))
		}
		for _, m := range decl.EndToEnd {
			got, ok := out.Metrics[m.Name]
			if !ok || got.Unit != m.Unit || !(got.Value > 0) || math.IsInf(got.Value, 0) {
				t.Errorf("%s: %s = %+v (present %v), want a positive finite value in %s", w.Name, m.Name, got, ok, m.Unit)
			}
		}

		out = run(w.Name, "1")
		if len(out.Metrics) != len(decl.PerLayer) {
			t.Errorf("%s traced: %d per-layer metrics, want %d", w.Name, len(out.Metrics), len(decl.PerLayer))
		}
		positive := 0
		for _, m := range decl.PerLayer {
			got, ok := out.Metrics[m.Name]
			if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
				t.Errorf("%s traced: %s = %+v (present %v), want a finite value in %s", w.Name, m.Name, got, ok, m.Unit)
			}
			if got.Value > 0 {
				positive++
			}
		}
		if positive < len(decl.PerLayer)/2 {
			t.Errorf("%s traced: only %d of %d per-layer metrics are positive", w.Name, positive, len(decl.PerLayer))
		}
		var tf traceFile
		if err := readJSON(filepath.Join(dir, "trace-"+w.Name+".json"), &tf); err != nil {
			t.Fatal(err)
		}
		if l := tf.Ledger; l.WindowNs <= 0 || math.Abs(l.sumNs()-l.WindowNs) > 0.01*l.WindowNs {
			t.Errorf("%s: ledger rows sum to %.0f ns over a window of %.0f ns", w.Name, l.sumNs(), l.WindowNs)
		}
		if len(tf.Ranks) == 0 || len(tf.Ranks[0].Spans) == 0 {
			t.Errorf("%s: trace file holds no spans", w.Name)
		}
	}
	for _, pattern := range []string{"window-*.json", "ranktrace-*.json", "scioto-ipc-*"} {
		if leftovers, _ := filepath.Glob(filepath.Join(dir, pattern)); len(leftovers) > 0 {
			t.Errorf("rank scratch files left behind: %v", leftovers)
		}
	}
}

func TestQuartileSpread(t *testing.T) {
	// statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25]
	vals := []float64{7, 1, 10, 4, 2, 9, 3, 8, 6, 5}
	if got, want := quartileSpread(vals), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}
