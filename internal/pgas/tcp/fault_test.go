package tcp_test

import (
	"os"
	"runtime"
	"syscall"
	"testing"
	"time"

	"scioto/internal/pgas"
	"scioto/internal/pgas/faulty"
	"scioto/internal/pgas/tcp"
)

// These tests assert on the error returned by the *launcher's* Run. In a
// rank process the same code runs too (children re-execute the binary, and
// every NewWorld call must happen there in the same order to keep the
// world sequence aligned), but Run either never returns (the rank's own
// world exits the process) or is an inert skip returning nil — so each
// test bails out after Run when running inside a rank process.
func inRankProcess() bool { return os.Getenv("SCIOTO_TCP_RANK") != "" }

// TestCrashContainmentSIGKILL is the acceptance scenario: one rank is
// killed dead mid-run — while holding a remote lock, between barriers —
// and every surviving rank must come back with a FaultError naming the
// dead rank, promptly and without leaking goroutines in the launcher.
// Grace is set high so a pass proves the survivors self-detected the
// death; only a hung survivor would be grace-killed, and that would blow
// the elapsed-time bound.
func TestCrashContainmentSIGKILL(t *testing.T) {
	const n = 4
	const deadRank = 3
	w := tcp.NewWorld(tcp.Config{NProcs: n, Seed: 2, Grace: 10 * time.Second})
	goroutines := runtime.NumGoroutine()
	start := time.Now()
	err := w.Run(func(p pgas.Proc) {
		seg := p.AllocWords(2)
		lk := p.AllocLock()
		for i := 1; i <= 200; i++ {
			p.FetchAdd64(0, seg, 0, 1)
			p.Lock(0, lk)
			if p.Rank() == deadRank && i == 25 {
				// Die holding the lock: the cruelest spot — waiters are
				// spinning on the lock word on rank 0, which only the
				// fault check of their next attempt can end.
				syscall.Kill(os.Getpid(), syscall.SIGKILL)
			}
			p.FetchAdd64(0, seg, 1, 1)
			p.Unlock(0, lk)
			if i%10 == 0 {
				p.Barrier()
			}
		}
	})
	if inRankProcess() {
		return
	}
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("world with a SIGKILLed rank returned nil error")
	}
	fe, ok := pgas.AsFault(err)
	if !ok {
		t.Fatalf("error does not carry a FaultError: %v", err)
	}
	if fe.Rank != deadRank {
		t.Errorf("fault attributed to rank %d, want %d (err: %v)", fe.Rank, deadRank, err)
	}
	if elapsed >= 5*time.Second {
		t.Errorf("containment took %v, want < 5s (survivors were grace-killed instead of self-detecting)", elapsed)
	}
	// The launcher must not leak goroutines: rendezvous broker and exit
	// watchers all finish once every child is reaped.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > goroutines+1 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > goroutines+1 {
		t.Errorf("launcher leaked goroutines: %d before Run, %d after", goroutines, got)
	}
}

// TestCompletionTeardown holds the completion barrier to its two rules: a
// clean finish is never a death — fifty back-to-back worlds whose body is
// one Barrier, heartbeats running through every exit, return nil — and a
// rank that dies as its body returns, its peers in the completion
// barrier, is named on the survivors within TestCrashContainmentSIGKILL's
// bound.
func TestCompletionTeardown(t *testing.T) {
	const n = 4
	t.Run("clean", func(t *testing.T) {
		for i := 0; i < 50; i++ {
			w := tcp.NewWorld(tcp.Config{NProcs: n, Seed: int64(100 + i), Heartbeat: 5 * time.Millisecond})
			err := w.Run(func(p pgas.Proc) { p.Barrier() })
			if err != nil && !inRankProcess() {
				t.Errorf("world %d of a clean completion failed: %v", i, err)
			}
		}
	})
	t.Run("death", func(t *testing.T) {
		const deadRank = 3
		w := tcp.NewWorld(tcp.Config{NProcs: n, Seed: 8, Grace: 10 * time.Second})
		start := time.Now()
		err := w.Run(func(p pgas.Proc) {
			p.Barrier()
			if p.Rank() == deadRank {
				syscall.Kill(os.Getpid(), syscall.SIGKILL)
			}
		})
		if inRankProcess() {
			return
		}
		fe, ok := pgas.AsFault(err)
		if !ok || fe.Rank != deadRank {
			t.Fatalf("error = %v, want a FaultError naming rank %d", err, deadRank)
		}
		if elapsed := time.Since(start); elapsed >= 5*time.Second {
			t.Errorf("containment took %v, want < 5s (survivors were grace-killed instead of self-detecting)", elapsed)
		}
	})
}

// TestInjectedCrashOverTCP drives the faulty wrapper across process
// boundaries: the crashing rank panics with a structured FaultError,
// which must survive the trip through the child's exit report so the
// launcher's error keeps both the rank and the injection phase.
func TestInjectedCrashOverTCP(t *testing.T) {
	const n = 3
	w := faulty.Wrap(
		tcp.NewWorld(tcp.Config{NProcs: n, Seed: 3, Grace: 10 * time.Second}),
		// Op 32: rank 1's eighth FetchAdd64 after its second barrier of two
		// Sends. A wrong op panics instead of the injected crash.
		faulty.Config{Seed: 4, CrashRank: 1, CrashAfterOps: 32,
			Observe: func(_ time.Duration, _ int, kind, op string, _ int) {
				if kind == "crash" && op != "FetchAdd64" {
					panic("the pin interrupted a " + op + ", want a FetchAdd64 (re-pin CrashAfterOps)")
				}
			}},
	)
	start := time.Now()
	err := w.Run(func(p pgas.Proc) {
		seg := p.AllocWords(1)
		for i := 1; i <= 100; i++ {
			p.FetchAdd64(0, seg, 0, 1)
			if i%10 == 0 {
				p.Barrier()
			}
		}
	})
	if inRankProcess() {
		return
	}
	if err == nil {
		t.Fatal("world with injected crash returned nil error")
	}
	fe, ok := pgas.AsFault(err)
	if !ok {
		t.Fatalf("error does not carry a FaultError: %v", err)
	}
	if fe.Rank != 1 || fe.Phase != "injected-crash" {
		t.Errorf("fault = rank %d phase %q, want rank 1 phase injected-crash (err: %v)", fe.Rank, fe.Phase, err)
	}
	if elapsed := time.Since(start); elapsed >= 5*time.Second {
		t.Errorf("containment took %v, want < 5s", elapsed)
	}
}

// TestHeartbeatDetectsStall freezes one rank with SIGSTOP: the process is
// alive, its sockets stay open, no EOF ever arrives — only the heartbeat
// (or an op deadline) can notice. Survivors must attribute the fault to
// the stalled rank, and the launcher's grace kill must reap the frozen
// process so Run returns at all.
func TestHeartbeatDetectsStall(t *testing.T) {
	if testing.Short() {
		t.Skip("stall detection waits out heartbeat and grace timers; skipped in -short")
	}
	const n = 3
	const stalledRank = 2
	w := tcp.NewWorld(tcp.Config{
		NProcs:    n,
		Seed:      5,
		Heartbeat: 100 * time.Millisecond,
		Grace:     2 * time.Second,
	})
	start := time.Now()
	err := w.Run(func(p pgas.Proc) {
		seg := p.AllocWords(1)
		for i := 1; i <= 50; i++ {
			p.FetchAdd64(0, seg, 0, 1)
			if p.Rank() == stalledRank && i == 20 {
				syscall.Kill(os.Getpid(), syscall.SIGSTOP)
			}
			if i%5 == 0 {
				p.Barrier()
			}
		}
	})
	if inRankProcess() {
		return
	}
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("world with a stalled rank returned nil error")
	}
	fe, ok := pgas.AsFault(err)
	if !ok {
		t.Fatalf("error does not carry a FaultError: %v", err)
	}
	if fe.Rank != stalledRank {
		t.Errorf("fault attributed to rank %d, want %d (err: %v)", fe.Rank, stalledRank, err)
	}
	if elapsed >= 10*time.Second {
		t.Errorf("stall containment took %v, want well under the 60s op deadline", elapsed)
	}
}

// TestHeartbeatCleanRun guards against false positives: a healthy world
// with aggressive heartbeating and compute pauses longer than the ping
// interval must complete without a fault.
func TestHeartbeatCleanRun(t *testing.T) {
	const n = 3
	w := tcp.NewWorld(tcp.Config{NProcs: n, Seed: 6, Heartbeat: 25 * time.Millisecond})
	err := w.Run(func(p pgas.Proc) {
		seg := p.AllocData(64)
		buf := make([]byte, 8)
		for i := 0; i < 4; i++ {
			time.Sleep(60 * time.Millisecond) // longer than the ping interval
			p.Put((p.Rank()+1)%n, seg, 0, []byte("heartbtt"))
			p.Get(buf, (p.Rank()+1)%n, seg, 0)
			p.Barrier()
		}
	})
	if inRankProcess() {
		return
	}
	if err != nil {
		t.Fatalf("healthy heartbeat world failed: %v", err)
	}
}

// TestOpContextInFaults asserts the satellite requirement directly: a
// fault surfacing from a remote operation names the operation with its
// operands, so logs identify which access died.
func TestOpContextInFaults(t *testing.T) {
	const n = 2
	w := faulty.Wrap(
		tcp.NewWorld(tcp.Config{NProcs: n, Seed: 7, Grace: 10 * time.Second}),
		faulty.Config{Seed: 8, DropProb: 1.0, CrashRank: faulty.NoCrash},
	)
	err := w.Run(func(p pgas.Proc) {
		seg := p.AllocWords(8)
		p.Store64((p.Rank()+1)%n, seg, 5, 42)
	})
	if inRankProcess() {
		return
	}
	if err == nil {
		t.Fatal("world with DropProb=1 returned nil error")
	}
	fe, ok := pgas.AsFault(err)
	if !ok {
		t.Fatalf("error does not carry a FaultError: %v", err)
	}
	if fe.Phase != "injected-drop" {
		t.Errorf("phase = %q, want injected-drop", fe.Phase)
	}
}
