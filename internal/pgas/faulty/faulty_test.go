package faulty

import (
	"strings"
	"testing"
	"time"

	"scioto/internal/pgas"
	"scioto/internal/pgas/dsim"
	"scioto/internal/pgas/pgastest"
	"scioto/internal/pgas/shm"
)

// delayOnly injects frequent but bounded delays and nothing else. Delays
// must be invisible to program results, so the full conformance suite has
// to pass unchanged under this config.
var delayOnly = Config{
	Seed:      42,
	DelayProb: 0.3,
	MaxDelay:  50 * time.Microsecond,
	CrashRank: NoCrash,
}

func TestConformanceDelayOnlySHM(t *testing.T) {
	pgastest.RunConformance(t, func(n int) pgas.World {
		return Wrap(shm.NewWorld(shm.Config{NProcs: n}), delayOnly)
	})
}

func TestConformanceDelayOnlyDSim(t *testing.T) {
	pgastest.RunConformance(t, func(n int) pgas.World {
		return Wrap(dsim.NewWorld(dsim.Config{
			NProcs:  n,
			Latency: 2 * time.Microsecond,
			PerByte: time.Nanosecond,
		}), delayOnly)
	})
}

// TestDelaysInvisibleToVirtualTime pins down why the dsim conformance run
// above is meaningful: injected delays are real time.Sleep calls, which
// dsim's virtual clock cannot see, so a delay-only wrap leaves virtual
// timing bit-identical.
func TestDelaysInvisibleToVirtualTime(t *testing.T) {
	const n = 4
	workload := func(p pgas.Proc) time.Duration {
		seg := p.AllocWords(1)
		for i := 0; i < 20; i++ {
			p.FetchAdd64((p.Rank()+1)%n, seg, 0, 1)
			p.Barrier()
		}
		return p.Now()
	}
	measure := func(w pgas.World) time.Duration {
		var end time.Duration
		if err := w.Run(func(p pgas.Proc) {
			t := workload(p)
			if p.Rank() == 0 {
				end = t
			}
		}); err != nil {
			t.Fatalf("run: %v", err)
		}
		return end
	}
	cfg := dsim.Config{NProcs: n, Latency: 3 * time.Microsecond}
	plain := measure(dsim.NewWorld(cfg))
	delayed := measure(Wrap(dsim.NewWorld(cfg), delayOnly))
	if plain != delayed {
		t.Errorf("virtual end time changed under delay-only faults: %v vs %v", plain, delayed)
	}
	if plain == 0 {
		t.Error("workload reported zero virtual time; measurement is vacuous")
	}
}

// TestInjectedCrash crashes rank 1 at its 5th operation, its fifth
// FetchAdd64, and checks the survivors' world returns a FaultError
// attributed to rank 1; the other ranks do bounded work so the test cannot
// hang on a missing rank.
func TestInjectedCrash(t *testing.T) {
	const n = 3
	var crashedAt string // written by rank 1's goroutine, read after Run
	w := Wrap(shm.NewWorld(shm.Config{NProcs: n}), Config{
		Seed:          1,
		CrashRank:     1,
		CrashAfterOps: 5,
		Observe: func(_ time.Duration, _ int, kind, op string, _ int) {
			if kind == "crash" {
				crashedAt = op
			}
		},
	})
	err := w.Run(func(p pgas.Proc) {
		seg := p.AllocWords(1)
		for i := 0; i < 10; i++ {
			p.FetchAdd64(p.Rank(), seg, 0, 1) // local target: never dropped, still counted
		}
	})
	if err == nil {
		t.Fatal("world with injected crash returned nil error")
	}
	fe, ok := pgas.AsFault(err)
	if !ok {
		t.Fatalf("error is not a FaultError: %v", err)
	}
	if fe.Rank != 1 || fe.Phase != "injected-crash" {
		t.Errorf("fault = rank %d phase %q, want rank 1 phase injected-crash", fe.Rank, fe.Phase)
	}
	if crashedAt != "FetchAdd64" {
		t.Errorf("the pin interrupted a %q, want a FetchAdd64", crashedAt)
	}
}

// TestInjectedDrop forces a certain drop on the first remote operation and
// checks the fault names the target rank and carries full op context.
func TestInjectedDrop(t *testing.T) {
	const n = 2
	w := Wrap(shm.NewWorld(shm.Config{NProcs: n}), Config{
		Seed:      7,
		DropProb:  1.0,
		CrashRank: NoCrash,
	})
	err := w.Run(func(p pgas.Proc) {
		seg := p.AllocData(64)
		buf := make([]byte, 16)
		p.Get(buf, (p.Rank()+1)%n, seg, 8)
	})
	if err == nil {
		t.Fatal("world with DropProb=1 returned nil error")
	}
	fe, ok := pgas.AsFault(err)
	if !ok {
		t.Fatalf("error is not a FaultError: %v", err)
	}
	if fe.Phase != "injected-drop" {
		t.Errorf("phase = %q, want injected-drop", fe.Phase)
	}
	for _, want := range []string{"Get(", "seg=", "off=8", "n=16"} {
		if !strings.Contains(fe.Op, want) {
			t.Errorf("fault op %q missing %q", fe.Op, want)
		}
	}
}

// TestNbFaultInjection checks that faults injected at issue time on
// pending non-blocking operations still surface as rank-attributed
// FaultErrors from Run — the pipeline must not swallow them.
func TestNbFaultInjection(t *testing.T) {
	pgastest.RunNbFaultInjection(t, func(n int) pgas.World {
		return Wrap(shm.NewWorld(shm.Config{NProcs: n}), Config{
			Seed:      13,
			DropProb:  0.05,
			CrashRank: NoCrash,
		})
	})
}

// TestDeterministicInjection: identical seeds produce identical fault
// schedules; different seeds are allowed to differ (and do, for this pair).
// The world is dsim because the property under test is end-to-end: each
// rank's injection schedule is seed-deterministic on any transport, but
// which rank's fault Run *reports* when several ranks fault near-
// simultaneously depends on the scheduler, and only dsim's virtual-time
// scheduler is deterministic (on shm, the first fault to register poisons
// the world, and that race goes either way).
func TestDeterministicInjection(t *testing.T) {
	const n = 2
	failOp := func(seed int64) string {
		w := Wrap(dsim.NewWorld(dsim.Config{NProcs: n}), Config{
			Seed:      seed,
			DropProb:  0.2,
			CrashRank: NoCrash,
		})
		err := w.Run(func(p pgas.Proc) {
			seg := p.AllocWords(4)
			for i := 0; i < 200; i++ {
				p.FetchAdd64((p.Rank()+1)%n, seg, i%4, 1)
			}
		})
		if err == nil {
			return ""
		}
		fe, ok := pgas.AsFault(err)
		if !ok {
			t.Fatalf("seed %d: non-fault error %v", seed, err)
		}
		return fe.Op + "/" + fe.Phase
	}
	a, b := failOp(99), failOp(99)
	if a != b {
		t.Errorf("same seed, different fault: %q vs %q", a, b)
	}
	if a == "" {
		t.Error("DropProb=0.2 over 200 remote ops never fired; injection looks dead")
	}
}

func TestFromEnv(t *testing.T) {
	if _, ok := FromEnv(); ok {
		t.Fatal("FromEnv reported ok with no SCIOTO_FAULT_* set")
	}
	t.Setenv(EnvSeed, "11")
	t.Setenv(EnvDropProb, "0.5")
	t.Setenv(EnvMaxDelay, "2ms")
	t.Setenv(EnvCrashRank, "3")
	t.Setenv(EnvCrashAfterOps, "100")
	cfg, ok := FromEnv()
	if !ok {
		t.Fatal("FromEnv reported !ok with knobs set")
	}
	if cfg.Seed != 11 || cfg.DropProb != 0.5 || cfg.MaxDelay != 2*time.Millisecond ||
		cfg.CrashRank != 3 || cfg.CrashAfterOps != 100 {
		t.Errorf("FromEnv = %+v", cfg)
	}
	t.Setenv(EnvDelayProb, "1.7") // out of range: ignored, not fatal
	cfg, _ = FromEnv()
	if cfg.DelayProb != 0 {
		t.Errorf("malformed probability accepted: %v", cfg.DelayProb)
	}
}
