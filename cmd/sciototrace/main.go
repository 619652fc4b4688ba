// Command sciototrace merges the per-rank trace dumps written by a run
// with SCIOTO_OBS_TRACE_DIR (or Config.Obs.TraceDir) into a single Chrome
// trace-event JSON file, viewable in chrome://tracing or Perfetto.
//
// Each rank becomes one thread row. Every record is drawn once: a span
// kind as a complete duration event — task executions and steal attempts
// on the rank's row, the other occupancy resources on a row of their own
// in a second process group — and an instant kind (votes, waves,
// releases, reacquires, task adds, injected faults, recovery steps,
// termination) as an instant. A successful steal draws a flow arrow from
// the thief's span to the victim's row. Names, categories and argument
// labels come from the kind table each dump carries.
//
// With -report the merge instead feeds the attribution engine: the
// output is a machine-readable bottleneck report — per-rank occupancy
// fractions (disjoint, summing to ≤ 1.0 with idle) and the serialized
// critical path carved up by blamed resource.
//
// With -serve the merged run is held in memory and served over local
// HTTP: an index page with the top-k bottleneck table and occupancy
// bars, plus /trace (Chrome JSON), /report, and /occupancy endpoints.
//
// Usage:
//
//	sciototrace /tmp/traces                    # merge dir/trace-rank*.json
//	sciototrace -o run.json trace-rank*.json   # explicit files
//	sciototrace -report -o - /tmp/traces       # attribution report to stdout
//	sciototrace -serve localhost:8123 /tmp/traces
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"scioto/internal/obs"
	"scioto/internal/trace"
)

func main() {
	out := flag.String("o", "scioto-trace.json", `output file ("-" for stdout)`)
	report := flag.Bool("report", false, "emit a bottleneck-attribution report (JSON) instead of a Chrome trace")
	serve := flag.String("serve", "", "serve the merged trace, occupancy timelines, and attribution report over HTTP at this address (e.g. localhost:8123)")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: sciototrace [-o out.json] [-report] [-serve addr] <trace-dir | trace-rank*.json ...>")
		os.Exit(2)
	}

	paths, err := resolveInputs(flag.Args())
	if err != nil {
		fatal(err)
	}
	dumps := make([]*trace.Dump, 0, len(paths))
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			fatal(err)
		}
		d, err := trace.ReadDump(f)
		f.Close()
		if err != nil {
			fatal(fmt.Errorf("%s: %w", path, err))
		}
		if d.Dropped > 0 {
			fmt.Fprintf(os.Stderr, "sciototrace: warning: rank %d dropped %d records; the timeline is truncated, the /metrics aggregates stay exact (raise SCIOTO_OBS_TRACE_LIMIT)\n", d.Rank, d.Dropped)
		}
		dumps = append(dumps, d)
	}

	if *serve != "" {
		if err := serveRun(*serve, dumps); err != nil {
			fatal(err)
		}
		return
	}
	if *report {
		if err := writeReport(*out, dumps); err != nil {
			fatal(err)
		}
		return
	}

	events := convert(dumps)
	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ns"}); err != nil {
		fatal(err)
	}
	if *out != "-" {
		fmt.Fprintf(os.Stderr, "sciototrace: wrote %d events from %d ranks to %s\n", len(events), len(dumps), *out)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sciototrace:", err)
	os.Exit(1)
}

// resolveInputs expands a single directory argument into its per-rank
// dump files; explicit file arguments pass through.
func resolveInputs(args []string) ([]string, error) {
	if len(args) == 1 {
		if st, err := os.Stat(args[0]); err == nil && st.IsDir() {
			paths, err := filepath.Glob(filepath.Join(args[0], "trace-rank*.json"))
			if err != nil {
				return nil, err
			}
			if len(paths) == 0 {
				return nil, fmt.Errorf("no trace-rank*.json files in %s", args[0])
			}
			sort.Strings(paths)
			return paths, nil
		}
	}
	return args, nil
}

// chromeTrace is the trace-event JSON object format.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// chromeEvent is one trace-event record. Ts and Dur are microseconds.
type chromeEvent struct {
	Name string         `json:"name,omitempty"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   int64          `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

func micros(ns int64) float64 { return float64(ns) / 1e3 }

// chromeName gives the two span kinds drawn on the rank rows their short
// viewer names (scripts/obs_smoke.sh greps for them); every other kind
// keeps its catalogue name.
var chromeName = map[string]string{"task_exec": "exec", "steal_window": "steal"}

// convert merges per-rank dumps into Chrome trace events: one event per
// record (every span in a dump is closed, so there is nothing to pair),
// plus a flow arrow per successful steal and the row labels.
func convert(dumps []*trace.Dump) []chromeEvent {
	const pid = 1
	const occPid = 2 // occupancy rows in their own process group
	out := []chromeEvent{
		{Name: "process_name", Ph: "M", Pid: pid, Args: map[string]any{"name": "scioto"}},
		{Name: "process_name", Ph: "M", Pid: occPid, Args: map[string]any{"name": "scioto occupancy"}},
	}
	var flowID int64
	for _, d := range dumps {
		rank := d.Rank
		for _, p := range []int{pid, occPid} {
			out = append(out, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: p, Tid: rank,
				Args: map[string]any{"name": fmt.Sprintf("rank %d", rank)},
			})
		}
		for _, q := range d.Records {
			k, start, end, a1, a2 := d.Kinds[q[0]], q[1], q[2], q[3], q[4]
			ev := chromeEvent{Name: k.Name, Cat: k.Cat, Ph: "i", S: "t", Ts: micros(start), Pid: pid, Tid: rank, Args: map[string]any{}}
			if n, ok := chromeName[k.Name]; ok {
				ev.Name = n
			}
			for i, name := range k.Args {
				if name != "" {
					ev.Args[name] = q[3+i]
				}
			}
			if k.Prio > 0 {
				dur := micros(end - start)
				ev.Ph, ev.S, ev.Dur = "X", "", &dur
				if k.Cat == "occ" {
					// Occupancy spans overlap freely; nesting them under
					// the task spans would misrender.
					ev.Pid = occPid
				}
			}
			switch k.Name {
			case "fault":
				ev.Args["kind"] = obs.FaultKindName(a1)
			case "steal_window":
				ev.Args["outcome"] = "ok"
				switch a2 {
				case trace.StealEmpty:
					ev.Args["outcome"] = "empty"
				case trace.StealBusy:
					ev.Args["outcome"], ev.Args["tasks"] = "busy", 0
				}
			}
			out = append(out, ev)
			if k.Name == "steal_window" && a2 > 0 {
				// Flow arrow thief → victim at the moment of success.
				flowID++
				out = append(out,
					chromeEvent{Name: "steal", Cat: "flow", Ph: "s", Ts: micros(end), Pid: pid, Tid: rank, ID: flowID},
					chromeEvent{Name: "steal", Cat: "flow", Ph: "f", BP: "e", Ts: micros(end), Pid: pid, Tid: int(a1), ID: flowID},
				)
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Ts < out[j].Ts })
	return out
}
