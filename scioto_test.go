package scioto_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"scioto"
)

// TestRunBothTransports: the facade launches SPMD bodies on both machines.
func TestRunBothTransports(t *testing.T) {
	for _, tr := range []scioto.Transport{scioto.TransportSHM, scioto.TransportDSim} {
		ran := make([]bool, 3)
		err := scioto.Run(scioto.Config{Procs: 3, Transport: tr, Seed: 1}, func(rt *scioto.Runtime) {
			if rt.NProcs() != 3 {
				panic("wrong world size")
			}
			ran[rt.Rank()] = true
			rt.Proc().Barrier()
		})
		if err != nil {
			t.Fatalf("%s: %v", tr, err)
		}
		for r, ok := range ran {
			if !ok {
				t.Fatalf("%s: rank %d never ran", tr, r)
			}
		}
	}
}

// TestRunEndToEnd: the doc-comment program works as written.
func TestRunEndToEnd(t *testing.T) {
	var total int64
	cfg := scioto.Config{Procs: 4, Transport: scioto.TransportDSim, Seed: 42}
	err := scioto.Run(cfg, func(rt *scioto.Runtime) {
		tc := scioto.NewTC(rt, scioto.TCConfig{MaxBodySize: 8, ChunkSize: 5})
		h := tc.Register(func(tc *scioto.TC, t *scioto.Task) {
			tc.Proc().Compute(10 * time.Microsecond)
		})
		if rt.Rank() == 0 {
			task := scioto.NewTask(h, 8)
			for i := 0; i < 100; i++ {
				if err := tc.Add(0, scioto.AffinityHigh, task); err != nil {
					panic(err)
				}
			}
		}
		tc.Process()
		g := tc.GlobalStats()
		if rt.Rank() == 0 {
			total = g.TasksExecuted
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if total != 100 {
		t.Fatalf("executed %d tasks, want 100", total)
	}
}

// TestRunTCPTransport: the facade launches real OS processes for the tcp
// transport, and the Scioto runtime attaches in each. Validation happens
// inside the body (the ranks run in separate address spaces); a counter on
// rank 0 proves every rank ran and the PGAS connected them.
func TestRunTCPTransport(t *testing.T) {
	const n = 2
	err := scioto.Run(scioto.Config{Procs: n, Transport: scioto.TransportTCP, Seed: 1}, func(rt *scioto.Runtime) {
		p := rt.Proc()
		ws := p.AllocWords(1)
		p.FetchAdd64(0, ws, 0, int64(rt.Rank())+1)
		p.Barrier()
		if rt.Rank() == 0 {
			if got := p.Load64(0, ws, 0); got != n*(n+1)/2 {
				panic("not every rank contributed")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestConfigValidation: bad configs error instead of panicking.
func TestConfigValidation(t *testing.T) {
	if err := scioto.Run(scioto.Config{Procs: 0}, func(*scioto.Runtime) {}); err == nil {
		t.Error("zero Procs accepted")
	}
	if err := scioto.Run(scioto.Config{Procs: 2, Transport: "carrier-pigeon"}, func(*scioto.Runtime) {}); err == nil {
		t.Error("unknown transport accepted")
	} else if !strings.Contains(err.Error(), "transport") {
		t.Errorf("unhelpful error: %v", err)
	}
}

// TestPanicPropagatesThroughFacade: a panicking rank surfaces as an error.
func TestPanicPropagatesThroughFacade(t *testing.T) {
	err := scioto.Run(scioto.Config{Procs: 2, Seed: 1}, func(rt *scioto.Runtime) {
		if rt.Rank() == 1 {
			panic("boom")
		}
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("panic not propagated: %v", err)
	}
}

// TestHeterogeneousConfig: SpeedFactor reaches the dsim machine.
func TestHeterogeneousConfig(t *testing.T) {
	var charges [2]time.Duration
	err := scioto.Run(scioto.Config{
		Procs:     2,
		Transport: scioto.TransportDSim,
		Seed:      1,
		SpeedFactor: func(rank int) float64 {
			return float64(1 + rank)
		},
	}, func(rt *scioto.Runtime) {
		p := rt.Proc()
		t0 := p.Now()
		p.Compute(time.Millisecond)
		charges[rt.Rank()] = p.Now() - t0
	})
	if err != nil {
		t.Fatal(err)
	}
	if charges[1] != 2*charges[0] {
		t.Errorf("speed factors ignored: %v", charges)
	}
}

// TestRunRecover: Config.Recover survives a worker-rank crash end to end —
// the facade arms the survivable transport, journaling, and healing, and
// the completed run accounts for every task exactly once.
func TestRunRecover(t *testing.T) {
	for _, tr := range []scioto.Transport{scioto.TransportSHM, scioto.TransportDSim} {
		var total int64
		var crashedAt string // rank 2's, read after Run
		err := scioto.Run(scioto.Config{
			Procs:     4,
			Transport: tr,
			Seed:      9,
			Recover:   true,
			// Op 14 is, on dsim, the rank's second reacquire, a CAS64: ops
			// 6 to 22 are what it issues while it works through its own
			// fifty tasks, after two barriers of two Sends each and the
			// detector reset's one Store64 (rank 2 is a leaf of the wave
			// tree); the phase can be over by op 25. On shm what thieves
			// took decides which of those ops it is.
			Faults: &scioto.FaultConfig{Seed: 9, CrashRank: 2, CrashAfterOps: 14,
				Observe: func(_ time.Duration, _ int, kind, op string, _ int) {
					if kind == "crash" {
						crashedAt = op
					}
				}},
		}, func(rt *scioto.Runtime) {
			tc := scioto.NewTC(rt, scioto.TCConfig{MaxBodySize: 8, ChunkSize: 2, MaxTasks: 2048})
			h := tc.Register(func(tc *scioto.TC, t *scioto.Task) {})
			task := scioto.NewTask(h, 8)
			for i := 0; i < 50; i++ {
				if err := tc.Add(rt.Rank(), scioto.AffinityHigh, task); err != nil {
					panic(err)
				}
			}
			tc.Process()
			g := tc.GlobalStats()
			if rt.Rank() == 0 {
				total = g.TasksExecuted + g.SalvagedExecs
			}
		})
		if err != nil {
			t.Fatalf("%s: recoverable run failed: %v", tr, err)
		}
		if total != 200 {
			t.Fatalf("%s: %d durable completions, want 200", tr, total)
		}
		if tr == scioto.TransportDSim && crashedAt != "CAS64" || crashedAt == "" || crashedAt == "Send" {
			t.Fatalf("%s: the pin interrupted %q, want the reacquire's CAS64 on dsim and no barrier's Send (re-pin CrashAfterOps)", tr, crashedAt)
		}
	}
}

// TestRunRecoverRankZeroUnrecoverable: with recovery armed, the death of
// rank 0 surfaces as ErrUnrecoverable, still carrying the FaultError.
func TestRunRecoverRankZeroUnrecoverable(t *testing.T) {
	var crashedAt string // rank 0's, read after Run
	err := scioto.Run(scioto.Config{
		Procs:     4,
		Transport: scioto.TransportSHM,
		Seed:      9,
		Recover:   true,
		// Op 18: inside the phase, past its barriers.
		Faults: &scioto.FaultConfig{Seed: 9, CrashRank: 0, CrashAfterOps: 18,
			Observe: func(_ time.Duration, _ int, kind, op string, _ int) {
				if kind == "crash" {
					crashedAt = op
				}
			}},
	}, func(rt *scioto.Runtime) {
		tc := scioto.NewTC(rt, scioto.TCConfig{MaxBodySize: 8, ChunkSize: 2})
		h := tc.Register(func(tc *scioto.TC, t *scioto.Task) {})
		task := scioto.NewTask(h, 8)
		for i := 0; i < 50; i++ {
			if err := tc.Add(rt.Rank(), scioto.AffinityHigh, task); err != nil {
				panic(err)
			}
		}
		tc.Process()
	})
	if !errors.Is(err, scioto.ErrUnrecoverable) {
		t.Fatalf("want ErrUnrecoverable, got %v", err)
	}
	fe, ok := scioto.AsFault(err)
	if !ok || fe.Rank != 0 {
		t.Fatalf("want FaultError naming rank 0 inside ErrUnrecoverable, got %v", err)
	}
	if crashedAt == "" || crashedAt == "Send" {
		t.Fatalf("the pin interrupted %q, want an operation of the phase's own work, not a barrier (re-pin CrashAfterOps)", crashedAt)
	}
}
