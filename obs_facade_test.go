package scioto_test

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"scioto"
	"scioto/internal/trace"
)

// TestRunWithObservability: the facade wires the whole observability layer
// from one Config field — metrics registries attach to the runtime, the
// live endpoint serves Prometheus text mid-run, and every rank dumps a
// readable trace file when its body returns.
func TestRunWithObservability(t *testing.T) {
	const n = 3
	dir := t.TempDir()

	// The endpoint address is chosen by the kernel (port 0) and announced
	// on stderr; capture stderr through a pipe so the test can find it and
	// scrape while the world is still running.
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	savedStderr := os.Stderr
	os.Stderr = pw
	restore := func() {
		if os.Stderr == pw {
			os.Stderr = savedStderr
			pw.Close()
		}
	}
	defer restore()

	scraped := make(chan string, 1) // /metrics body, or an error note
	scrapeErr := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(pr)
		found := false
		for sc.Scan() {
			line := sc.Text()
			if found {
				continue // keep draining so writers never block
			}
			const marker = "serving http://"
			i := strings.Index(line, marker)
			if i < 0 {
				continue
			}
			found = true
			url := "http://" + strings.TrimSuffix(line[i+len(marker):], "/metrics")
			go func() {
				// The endpoint announces itself before the body has
				// created its task collection, so scrape until the
				// collection's counters are there (rank 0 holds the
				// world open meanwhile, and gives up after 10s).
				for {
					resp, err := http.Get(url + "/metrics")
					if err != nil {
						scrapeErr <- err
						return
					}
					body, err := io.ReadAll(resp.Body)
					resp.Body.Close()
					if err != nil || resp.StatusCode != http.StatusOK {
						scrapeErr <- fmt.Errorf("GET /metrics: %s, %v", resp.Status, err)
						return
					}
					if strings.Contains(string(body), `scioto_tasks_executed_total{rank="0"}`) {
						scraped <- string(body)
						return
					}
					time.Sleep(time.Millisecond)
				}
			}()
		}
	}()

	metricsBody := make(chan string, 1)
	cfg := scioto.Config{
		Procs: n,
		Seed:  7,
		Obs: &scioto.ObsConfig{
			Addr:     "127.0.0.1:0",
			TraceDir: dir,
		},
	}
	runErr := scioto.Run(cfg, func(rt *scioto.Runtime) {
		if rt.Registry() == nil {
			panic("Obs set but runtime has no observer")
		}
		tc := scioto.NewTC(rt, scioto.TCConfig{MaxBodySize: 8, ChunkSize: 2})
		h := tc.Register(func(tc *scioto.TC, t *scioto.Task) {
			tc.Proc().Compute(5 * time.Microsecond)
		})
		if rt.Rank() == 0 {
			task := scioto.NewTask(h, 8)
			for i := 0; i < 60; i++ {
				if err := tc.Add(0, scioto.AffinityHigh, task); err != nil {
					panic(err)
				}
			}
		}
		tc.Process()
		// Rank 0 holds the world open until the live scrape lands, so the
		// endpoint is provably reachable mid-run, not just at startup.
		if rt.Rank() == 0 {
			select {
			case body := <-scraped:
				metricsBody <- body
			case err := <-scrapeErr:
				panic(fmt.Sprintf("live scrape failed: %v", err))
			case <-time.After(10 * time.Second):
				panic("timed out waiting for the live /metrics scrape")
			}
		}
		rt.Proc().Barrier()
	})
	restore()
	if runErr != nil {
		t.Fatal(runErr)
	}

	prom := <-metricsBody
	for _, want := range []string{
		`scioto_tasks_executed_total{rank="0"}`,
		`scioto_pgas_op_latency_seconds_bucket`,
		"# TYPE scioto_tasks_executed_total counter",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("live /metrics missing %q", want)
		}
	}

	// Every rank dumped a trace file with scheduler events in it.
	for rank := 0; rank < n; rank++ {
		path := filepath.Join(dir, fmt.Sprintf("trace-rank%04d.json", rank))
		f, err := os.Open(path)
		if err != nil {
			t.Fatalf("rank %d trace dump: %v", rank, err)
		}
		d, err := trace.ReadDump(f)
		f.Close()
		if err != nil {
			t.Fatalf("rank %d trace dump unreadable: %v", rank, err)
		}
		if d.Rank != rank {
			t.Errorf("trace file for rank %d records rank %d", rank, d.Rank)
		}
		if len(d.Records) == 0 {
			t.Errorf("rank %d trace dump has no records", rank)
		}
	}
}

// TestRunObsDisabled: without Config.Obs or SCIOTO_OBS_* the observer
// channels stay nil — the zero-overhead default.
func TestRunObsDisabled(t *testing.T) {
	t.Setenv("SCIOTO_OBS_ADDR", "")
	t.Setenv("SCIOTO_OBS_TRACE_DIR", "")
	t.Setenv("SCIOTO_OBS_TRACE_LIMIT", "")
	err := scioto.Run(scioto.Config{Procs: 2, Seed: 3}, func(rt *scioto.Runtime) {
		if rt.Registry() != nil {
			panic("observability must default to off")
		}
		rt.Proc().Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestObsFromEnv: the environment fallback mirrors FaultsFromEnv,
// including the ignore-and-warn treatment of malformed values.
func TestObsFromEnv(t *testing.T) {
	t.Setenv(scioto.EnvObsAddr, "")
	t.Setenv(scioto.EnvObsTraceDir, "")
	t.Setenv(scioto.EnvObsTraceLimit, "")
	if _, ok := scioto.ObsFromEnv(); ok {
		t.Fatal("empty environment must not enable observability")
	}

	t.Setenv(scioto.EnvObsAddr, "127.0.0.1:9100")
	t.Setenv(scioto.EnvObsTraceDir, "/tmp/traces")
	t.Setenv(scioto.EnvObsTraceLimit, "4096")
	cfg, ok := scioto.ObsFromEnv()
	if !ok {
		t.Fatal("set environment must enable observability")
	}
	if cfg.Addr != "127.0.0.1:9100" || cfg.TraceDir != "/tmp/traces" || cfg.TraceLimit != 4096 {
		t.Fatalf("env round-trip mismatch: %+v", cfg)
	}

	t.Setenv(scioto.EnvObsAddr, "")
	t.Setenv(scioto.EnvObsTraceDir, "")
	t.Setenv(scioto.EnvObsTraceLimit, "not-a-number")
	cfg, ok = scioto.ObsFromEnv()
	if ok || cfg.TraceLimit != 0 {
		t.Fatalf("malformed trace limit must be ignored, got ok=%v cfg=%+v", ok, cfg)
	}
}

// TestRunEnvEnablesObs: setting only SCIOTO_OBS_TRACE_DIR on an unmodified
// program is enough to get trace dumps, and SCIOTO_OBS_TRACE_LIMIT caps
// what each rank's one recorder retains for them.
func TestRunEnvEnablesObs(t *testing.T) {
	dir := t.TempDir()
	t.Setenv(scioto.EnvObsAddr, "")
	t.Setenv(scioto.EnvObsTraceLimit, "8")
	t.Setenv(scioto.EnvObsTraceDir, dir)
	err := scioto.Run(scioto.Config{Procs: 2, Transport: scioto.TransportDSim, Seed: 9}, func(rt *scioto.Runtime) {
		if rt.Registry() == nil {
			panic("SCIOTO_OBS_TRACE_DIR must enable the observer")
		}
		tc := scioto.NewTC(rt, scioto.TCConfig{MaxBodySize: 8})
		h := tc.Register(func(tc *scioto.TC, t *scioto.Task) {})
		if rt.Rank() == 0 {
			task := scioto.NewTask(h, 8)
			for i := 0; i < 10; i++ {
				if err := tc.Add(0, scioto.AffinityLow, task); err != nil {
					panic(err)
				}
			}
		}
		tc.Process()
	})
	if err != nil {
		t.Fatal(err)
	}
	for rank := 0; rank < 2; rank++ {
		f, err := os.Open(filepath.Join(dir, fmt.Sprintf("trace-rank%04d.json", rank)))
		if err != nil {
			t.Fatalf("rank %d trace dump missing: %v", rank, err)
		}
		d, err := trace.ReadDump(f)
		f.Close()
		if err != nil {
			t.Fatalf("rank %d trace dump unreadable: %v", rank, err)
		}
		// Every kind of record — scheduler instants, spans, the transport's
		// NIC windows — shares the one limit; the excess is counted.
		if len(d.Records) != 8 || d.Dropped == 0 {
			t.Errorf("rank %d retained %d records and dropped %d, want the limit 8 and the rest dropped", rank, len(d.Records), d.Dropped)
		}
	}
}
