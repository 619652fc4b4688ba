package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// benchmarkFile is the part of BENCHMARK.json the harness reads: the
// bounds for the A/A check, the names and units for its own test.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
		Bound      float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// selfCheck is the A/A test: sets of ten runs of every workload by the
// same binary, one fresh process per run and one seed per run, as the
// acceptance driver does it. It prints, for every metric x workload pair,
// the medians of the sets, the widest quartile spread within a set and
// the largest disagreement between two sets' medians beside the metric's
// bound, and fails when either exceeds half the bound.
func selfCheck(e *env, sets int) int {
	var bf benchmarkFile
	if err := readJSON("BENCHMARK.json", &bf); err != nil {
		fatalf("-aa reads the bounds from BENCHMARK.json in the working directory: %v", err)
	}
	exe, err := os.Executable()
	must(err)
	const seedsPerSet = 10 // as the acceptance driver runs it
	bad := 0
	fmt.Printf("A/A: %d sets x %d seeds per workload, %g s windows\n", sets, seedsPerSet, e.seconds)
	fmt.Printf("%-11s %-14s %-40s %8s %8s %6s\n", "workload", "metric", "set medians", "spread", "shift", "bound")
	for _, w := range workloads {
		if e.workload != "" && e.workload != w.name {
			continue
		}
		vals := map[string][][]float64{} // metric -> set -> runs
		for s := 0; s < sets; s++ {
			for k := 0; k < seedsPerSet; k++ {
				args := []string{"-workload", w.name, "-seed", strconv.Itoa(k + 1), "-seconds", fmt.Sprint(e.seconds), "-out", e.outDir}
				if e.quick {
					args = append(args, "-quick")
				}
				cmd := exec.Command(exe, args...)
				cmd.Stderr = os.Stderr
				stdout, err := cmd.Output()
				if err != nil {
					fatalf("-aa: %s seed %d: %v", w.name, k+1, err)
				}
				var out output
				sc := bufio.NewScanner(bytes.NewReader(stdout))
				for sc.Scan() {
					json.Unmarshal(sc.Bytes(), &out) // the last line wins
				}
				if !out.Correct {
					fatalf("-aa: %s seed %d: incorrect run", w.name, k+1)
				}
				for name, m := range out.Metrics {
					for len(vals[name]) <= s {
						vals[name] = append(vals[name], nil)
					}
					vals[name][s] = append(vals[name][s], m.Value)
				}
			}
		}
		for _, m := range bf.EndToEnd {
			var meds []float64
			spread, shift := 0.0, 0.0
			for _, set := range vals[m.Name] {
				meds = append(meds, median(set))
				if s := quartileSpread(set); s > spread {
					spread = s
				}
			}
			for _, a := range meds {
				for _, b := range meds {
					if d := (a - b) / b; d > shift {
						shift = d
					}
				}
			}
			flag := ""
			if (spread > m.Bound/2 && m.Name != "setup_s") || shift > m.Bound/2 {
				flag = "  EXCEEDS HALF THE BOUND"
				bad++
			}
			fmt.Printf("%-11s %-14s %-40s %7.2f%% %7.2f%% %5.0f%%%s\n", w.name, m.Name, fmt.Sprintf("%.5g", meds), 100*spread, 100*shift, 100*m.Bound, flag)
		}
	}
	if bad > 0 {
		fmt.Printf("A/A: %d pairs exceed half their bound\n", bad)
		return 1
	}
	fmt.Println("A/A: every pair within half its bound")
	return 0
}
