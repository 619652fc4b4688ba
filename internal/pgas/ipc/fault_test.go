package ipc_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"scioto"
	"scioto/internal/pgas"
	"scioto/internal/pgas/faulty"
	"scioto/internal/pgas/ipc"
)

// These tests assert on the error returned by the *launcher's* Run. In a
// rank process the same code runs too (children re-execute the binary, and
// every NewWorld call must happen there in the same order to keep the
// world sequence aligned), but Run either never returns (the rank's own
// world exits the process) or is an inert skip returning nil — so each
// test bails out after Run when running inside a rank process.
func inRankProcess() bool { return os.Getenv("SCIOTO_IPC_RANK") != "" }

// TestCrashContainmentSIGKILL is the acceptance scenario: one rank is
// killed dead mid-run — while holding a remote lock, between barriers —
// and every surviving rank must come back with a FaultError naming the
// dead rank, promptly and without leaking goroutines in the launcher.
// Grace is set high so a pass proves the survivors self-detected the
// death (through the control region's fault word, published by the
// launcher the moment it reaps the killed child); only a hung survivor
// would be grace-killed, and that would blow the elapsed-time bound.
func TestCrashContainmentSIGKILL(t *testing.T) {
	const n = 4
	const deadRank = 3
	w := ipc.NewWorld(ipc.Config{NProcs: n, Seed: 2, Grace: 10 * time.Second})
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
				// parked spinning on the holder word, which only the
				// death registrar's force-release can ever clear.
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
	// The launcher must not leak goroutines: the signal relay and exit
	// watchers all finish once every child is reaped.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > goroutines+1 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > goroutines+1 {
		t.Errorf("launcher leaked goroutines: %d before Run, %d after", goroutines, got)
	}
}

// TestSurvivableBarrierSIGKILLMidWait pins the barrier against the
// cruelest spot: a rank is SIGKILLed parked in a barrier, its first
// round's message already sent, while a live rank has provably not
// entered yet. The dead rank's message must not stand in for the missing
// live one — that would release a round early and desynchronize every
// later one; the fault epoch in the barrier's tags fences it off — so each
// survivor absorbs exactly one FaultError, acknowledges it, and the healed
// round plus a later round both complete over the live membership. Run
// must return nil: a healed death is not an error in a survivable world.
func TestSurvivableBarrierSIGKILLMidWait(t *testing.T) {
	const n = 4
	const deadRank = 3
	w := ipc.NewWorld(ipc.Config{NProcs: n, Seed: 5, Survivable: true})
	err := w.Run(func(p pgas.Proc) {
		res := p.(pgas.Resilient)
		pidSeg := p.AllocWords(1)
		cntSeg := p.AllocWords(1)
		p.RelaxedStore64(pidSeg, 0, int64(os.Getpid()))
		p.Barrier()

		// catching runs f and returns the FaultError it panicked, if any.
		catching := func(f func()) (fe *pgas.FaultError) {
			defer func() {
				if r := recover(); r != nil {
					var ok bool
					if fe, ok = r.(*pgas.FaultError); !ok {
						panic(r)
					}
				}
			}()
			f()
			return nil
		}
		// do runs f, absorbing (acknowledging, then retrying after) the
		// dead rank's fault: which step delivers it depends on the
		// reap/acknowledge interleaving, so every step must tolerate it.
		faults := 0
		do := func(f func()) {
			for {
				fe := catching(f)
				if fe == nil {
					return
				}
				if fe.Rank != deadRank {
					panic(fmt.Sprintf("fault names rank %d, want %d", fe.Rank, deadRank))
				}
				faults++
				res.SurviveFault(fe)
			}
		}

		if p.Rank() == deadRank {
			// Enter, then die parked in the wait: the launcher registers
			// the death while this rank's first round is already sent.
			go func() {
				time.Sleep(150 * time.Millisecond)
				syscall.Kill(os.Getpid(), syscall.SIGKILL)
			}()
			//lint:ignore collcongruence the dying rank arrives alone by design: it is SIGKILLed mid-wait, and the survivors complete the round over the live membership
			p.Barrier() // never returns
			panic("rank survived its own SIGKILL")
		}
		if p.Rank() == 0 {
			// Stay away from the barrier until the death is registered, so
			// the wounded round provably has a live rank missing while the
			// dead rank's first-round message already waits in its ring.
			deadline := time.Now().Add(8 * time.Second)
			for catching(func() { p.Load64(0, cntSeg, 0) }) == nil {
				if time.Now().After(deadline) {
					panic("death of the SIGKILLed rank was never registered")
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
		do(p.Barrier)                                // the wounded round, healed
		do(func() { p.FetchAdd64(0, cntSeg, 0, 1) }) // ops work after healing
		do(p.Barrier)                                // a later round works too
		if faults != 1 {
			panic(fmt.Sprintf("rank %d absorbed %d faults, want exactly 1", p.Rank(), faults))
		}
		if p.Rank() == 0 {
			if got := p.RelaxedLoad64(cntSeg, 0); got != n-1 {
				panic(fmt.Sprintf("post-recovery count = %d, want %d", got, n-1))
			}
		}
	})
	if inRankProcess() {
		return
	}
	if err != nil {
		t.Fatalf("survivable world with a rank SIGKILLed mid-barrier-wait failed: %v", err)
	}
}

// TestOnlyOwnFaultsHeal: a survivable world's Run returns nil when a rank
// died of its own *pgas.FaultError and another finished cleanly, as on shm
// and dsim, whether the survivor reaches its completion barrier after the
// death or waits in it when the death comes. A plain panic is a failure,
// not a death.
func TestOnlyOwnFaultsHeal(t *testing.T) {
	for _, c := range []struct {
		name   string
		late   int // the rank that sleeps before it returns or dies
		typed  bool
		healed bool
	}{
		{"own fault on rank 1 of 2", 0, true, true},
		{"own fault on rank 1 of 2, rank 0 in its completion barrier", 1, true, true},
		{"plain panic on rank 1 of 2", 0, false, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			err := ipc.NewWorld(ipc.Config{NProcs: 2, Seed: 1, Survivable: true}).Run(func(p pgas.Proc) {
				if p.Rank() == c.late {
					time.Sleep(50 * time.Millisecond)
				}
				if p.Rank() == 0 {
					return
				}
				if c.typed {
					panic(&pgas.FaultError{Rank: p.Rank(), Phase: "test", Err: errors.New("dies")})
				}
				panic("assertion failed")
			})
			if inRankProcess() {
				return
			}
			if healed := err == nil; healed != c.healed {
				t.Fatalf("Run returned %v, want healed = %v", err, c.healed)
			}
		})
	}
}

// TestInjectedCrashOverIPC drives the faulty wrapper across process
// boundaries: the crashing rank panics with a structured FaultError,
// which must survive the trip through the shared-file report slot so the
// launcher's error keeps both the rank and the injection phase.
func TestInjectedCrashOverIPC(t *testing.T) {
	const n = 3
	w := faulty.Wrap(
		ipc.NewWorld(ipc.Config{NProcs: n, Seed: 3, Grace: 10 * time.Second}),
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

// TestRecoverySIGKILLReplaysJournal is the satellite scenario end to end:
// a worker rank is SIGKILLed mid-phase (inside a task callback, so its
// in-flight task is provably not yet durable), the survivors acknowledge
// the death through SurviveFault, salvage the dead rank's journal from
// its still-mapped arena, replay the lost tasks, and finish the phase
// with an exact completion count — and the launcher's Run returns nil,
// because in a survivable world a healed death is not an error. All
// assertions run inside the body (each rank process has its own copy of
// captured variables); a failed assertion panics and fails the world.
func TestRecoverySIGKILLReplaysJournal(t *testing.T) {
	const n = 4
	const tasksPerRank = 50
	err := scioto.Run(scioto.Config{
		Procs:     n,
		Transport: scioto.TransportIPC,
		Seed:      9,
		Recover:   true,
	}, func(rt *scioto.Runtime) {
		tc := scioto.NewTC(rt, scioto.TCConfig{MaxBodySize: 8, ChunkSize: 2, MaxTasks: 2048})
		var executed int64
		h := tc.Register(func(tc *scioto.TC, task *scioto.Task) {
			if rt.Rank() == 2 && atomic.AddInt64(&executed, 1) == 5 {
				syscall.Kill(os.Getpid(), syscall.SIGKILL)
			}
		})
		task := scioto.NewTask(h, 8)
		for i := 0; i < tasksPerRank; i++ {
			if err := tc.Add(rt.Rank(), scioto.AffinityHigh, task); err != nil {
				panic(err)
			}
		}
		tc.Process()
		g := tc.GlobalStats()
		if rt.Rank() == 0 {
			if total := g.TasksExecuted + g.SalvagedExecs; total != n*tasksPerRank {
				panic("durable completions after SIGKILL recovery do not match the task count")
			}
		}
	})
	if inRankProcess() {
		return
	}
	if err != nil {
		t.Fatalf("recoverable run failed: %v", err)
	}
}

// TestRecoverRankZeroUnrecoverableOverIPC: with recovery armed, the death
// of rank 0 (the termination-tree root) surfaces as ErrUnrecoverable at
// the launcher, still carrying the rank-0 FaultError.
func TestRecoverRankZeroUnrecoverableOverIPC(t *testing.T) {
	err := scioto.Run(scioto.Config{
		Procs:     4,
		Transport: scioto.TransportIPC,
		Seed:      9,
		Recover:   true,
		// Op 18: inside the phase, past its barriers.
		// A barrier's Send panics instead of the injected crash.
		Faults: &scioto.FaultConfig{Seed: 9, CrashRank: 0, CrashAfterOps: 18,
			Observe: func(_ time.Duration, _ int, kind, op string, _ int) {
				if kind == "crash" && op == "Send" {
					panic("the pin interrupted a barrier's Send (re-pin CrashAfterOps)")
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
	if inRankProcess() {
		return
	}
	if !errors.Is(err, scioto.ErrUnrecoverable) {
		t.Fatalf("want ErrUnrecoverable, got %v", err)
	}
	fe, ok := scioto.AsFault(err)
	if !ok || fe.Rank != 0 {
		t.Fatalf("want FaultError naming rank 0 inside ErrUnrecoverable, got %v", err)
	}
}

// TestRegionLeavesNothingBehind: the shared region is a file no path
// names, so a world leaves no file in the temp directory or in /dev/shm,
// whether it ends cleanly, by a rank's panic, or by a rank SIGKILLed
// mid-barrier — and each verdict is what it would be anyway. On Linux the
// region needs no directory at all: a world runs with TMPDIR missing.
func TestRegionLeavesNothingBehind(t *testing.T) {
	// Rank processes create the same worlds in the same order; only the
	// launcher prepares the directory and judges.
	launcher := !inRankProcess()
	var dir string
	var shmBefore []string
	if launcher {
		if _, err := os.Stat(os.TempDir()); err == nil { // else TMPDIR is already missing
			dir = t.TempDir()
			t.Setenv("TMPDIR", dir)
		}
		shmBefore, _ = filepath.Glob("/dev/shm/scioto-ipc-*")
	}
	run := func(name string, body func(p pgas.Proc), verdict func(err error) bool) {
		err := ipc.NewWorld(ipc.Config{NProcs: 2, Seed: 7, Grace: 10 * time.Second}).Run(body)
		if launcher && !verdict(err) {
			t.Errorf("%s world: Run = %v", name, err)
		}
	}

	run("clean", func(p pgas.Proc) { p.Barrier() }, func(err error) bool { return err == nil })
	run("panicking", func(p pgas.Proc) {
		if p.Rank() == 1 {
			panic("boom")
		}
		p.Barrier()
	}, func(err error) bool { return err != nil && strings.Contains(err.Error(), "rank 1 panicked: boom") })
	run("SIGKILLed", func(p pgas.Proc) {
		seg := p.AllocWords(1)
		p.Barrier()
		if p.Rank() == 1 {
			go func() {
				time.Sleep(100 * time.Millisecond)
				syscall.Kill(os.Getpid(), syscall.SIGKILL)
			}()
		} else {
			// Stay out of the barrier until the death is registered: the
			// next operation after that panics the fault.
			for deadline := time.Now().Add(8 * time.Second); time.Now().Before(deadline); {
				p.Load64(1, seg, 0)
				time.Sleep(5 * time.Millisecond)
			}
		}
		p.Barrier()
	}, func(err error) bool {
		fe, ok := pgas.AsFault(err)
		return ok && fe.Rank == 1
	})
	if runtime.GOOS == "linux" {
		if launcher {
			t.Setenv("TMPDIR", "/nonexistent")
		}
		run("TMPDIR-less", func(p pgas.Proc) { p.Barrier() }, func(err error) bool { return err == nil })
	}
	if !launcher {
		return
	}

	if dir != "" {
		if left, _ := os.ReadDir(dir); len(left) > 0 {
			t.Errorf("temp directory holds %d entries after the worlds, first %q", len(left), left[0].Name())
		}
	}
	shmAfter, _ := filepath.Glob("/dev/shm/scioto-ipc-*")
	for _, f := range shmAfter {
		if !slices.Contains(shmBefore, f) {
			t.Errorf("/dev/shm gained %s", f)
		}
	}
}
