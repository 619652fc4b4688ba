package pgastest

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"scioto/internal/pgas"
)

// Conformance cases for the pgas lock. The lock is built once, in
// pgas.Front, over CAS64 (pgas/lock.go), so what these cases hold a
// transport to is its CAS64, its fault check and — the dead-holder case —
// its survival of a rank's death; run through a wrapper they also show that
// the wrapper is transparent to lock traffic. Like the rest of the suite,
// all validation happens inside the SPMD body.

// RunLocks runs the lock group. RunConformanceOptions includes it; a
// package may also run it alone on a stack of its own (shm's test runs it
// through faulty over instr).
func RunLocks(t *testing.T, newWorld Factory, opts Options) {
	t.Helper()
	t.Run("LockMutualExclusion", func(t *testing.T) { testLockMutex(t, newWorld) })
	t.Run("TryLock", func(t *testing.T) { testTryLock(t, newWorld) })
	t.Run("TryLockContended", func(t *testing.T) { testTryLockContended(t, newWorld) })
	t.Run("LockIndependence", func(t *testing.T) { testLockIndependence(t, newWorld) })
	t.Run("NbFlushBeforeUnlock", func(t *testing.T) { testNbFlushBeforeUnlock(t, newWorld) })
	t.Run("UnlockNotHeldPanics", func(t *testing.T) { testUnlockNotHeld(t, newWorld) })
	if opts.Survivable != nil {
		t.Run("DeadHolderBroken", func(t *testing.T) { testDeadHolder(t, opts.Survivable) })
	}
}

// testLockMutex: a lock-protected read-modify-write on a data segment must
// not lose updates.
func testLockMutex(t *testing.T, f Factory) {
	const n = 4
	const reps = 50
	w := f(n)
	run(t, w, func(p pgas.Proc) {
		seg := p.AllocData(8)
		lk := p.AllocLock()
		p.Barrier()
		buf := make([]byte, 8)
		for i := 0; i < reps; i++ {
			p.Lock(0, lk)
			p.Get(buf, 0, seg, 0)
			pgas.PutI64(buf, pgas.GetI64(buf)+1)
			p.Put(0, seg, 0, buf)
			p.Unlock(0, lk)
		}
		p.Barrier()
		if p.Rank() == 0 {
			if got := pgas.GetI64(p.Local(seg)); got != n*reps {
				panic(fmt.Sprintf("locked counter = %d, want %d", got, n*reps))
			}
		}
	})
}

func testTryLock(t *testing.T, f Factory) {
	w := f(2)
	run(t, w, func(p pgas.Proc) {
		lk := p.AllocLock()
		ws := p.AllocWords(1)
		if p.Rank() == 0 {
			p.Lock(0, lk)
			p.Store64(0, ws, 0, 1) // signal: lock held
			// Hold until rank 1 reports its TryLock failed.
			for p.Load64(0, ws, 0) != 2 {
				p.Compute(time.Microsecond)
			}
			p.Unlock(0, lk)
		} else {
			for p.Load64(0, ws, 0) != 1 {
				p.Compute(time.Microsecond)
			}
			if p.TryLock(0, lk) {
				panic("TryLock succeeded while lock held")
			}
			p.Store64(0, ws, 0, 2)
			p.Lock(0, lk) // must eventually succeed after rank 0 unlocks
			p.Unlock(0, lk)
		}
	})
}

// testTryLockContended: TryLock racing against other ranks must never
// report success while the lock is held. Every winner raises a holders
// count on rank 0 that must have been zero on entry.
func testTryLockContended(t *testing.T, f Factory) {
	const n = 4
	const attempts = 60
	w := f(n)
	run(t, w, func(p pgas.Proc) {
		lk := p.AllocLock()
		ws := p.AllocWords(1)
		p.Barrier()
		for i := 0; i < attempts; i++ {
			if p.TryLock(0, lk) {
				if prev := p.FetchAdd64(0, ws, 0, 1); prev != 0 {
					panic(fmt.Sprintf("TryLock succeeded with %d holders inside", prev))
				}
				p.Compute(10 * time.Microsecond)
				p.FetchAdd64(0, ws, 0, -1)
				p.Unlock(0, lk)
			}
		}
		p.Barrier()
	})
}

func testLockIndependence(t *testing.T, f Factory) {
	w := f(3)
	run(t, w, func(p pgas.Proc) {
		a := p.AllocLock()
		b := p.AllocLock()
		p.Barrier()
		if p.Rank() == 0 {
			// Holding lock a on proc 1 must not block lock b on proc 1 or
			// lock a on proc 2.
			p.Lock(1, a)
			if !p.TryLock(1, b) {
				panic("distinct lock ids interfere")
			}
			if !p.TryLock(2, a) {
				panic("same lock id on distinct hosts interferes")
			}
			p.Unlock(1, a)
			p.Unlock(1, b)
			p.Unlock(2, a)
		}
		p.Barrier()
	})
}

// testNbFlushBeforeUnlock: a lock-protected read-modify-write performed
// with non-blocking operations stays mutually exclusive as long as Flush
// precedes Unlock — the runtime's locked queue-update discipline.
func testNbFlushBeforeUnlock(t *testing.T, f Factory) {
	const n = 4
	const rounds = 25
	w := f(n)
	run(t, w, func(p pgas.Proc) {
		words := p.AllocWords(1)
		lk := p.AllocLock()
		for r := 0; r < rounds; r++ {
			p.Lock(0, lk)
			var cur int64
			h := p.NbLoad64(0, words, 0, &cur)
			p.Wait(h)
			p.NbStore64(0, words, 0, cur+1)
			p.Flush()
			p.Unlock(0, lk)
		}
		p.Barrier()
		if p.Rank() == 0 {
			if got := p.Load64(0, words, 0); got != int64(n*rounds) {
				panic(fmt.Sprintf("counter = %d, want %d: an increment escaped the lock", got, n*rounds))
			}
		}
		p.Barrier()
	})
}

// testUnlockNotHeld: Unlock refuses, by panicking, a lock that is free and
// a lock another rank holds, and the refusal leaves the lock as it was.
func testUnlockNotHeld(t *testing.T, f Factory) {
	run(t, f(2), func(p pgas.Proc) {
		lk := p.AllocLock()
		ws := p.AllocWords(1)
		refused := func(what string) {
			defer func() {
				if r := recover(); r == nil {
					panic(what + " did not panic")
				} else if _, ok := r.(string); !ok {
					panic(r) // not Unlock's refusal: a fault, or the world aborting
				}
			}()
			p.Unlock(0, lk)
		}
		refused(fmt.Sprintf("rank %d unlocking a free lock", p.Rank()))
		p.Barrier()
		if p.Rank() == 0 {
			p.Lock(0, lk)
			p.Store64(0, ws, 0, 1) // signal: lock held
			// Hold until rank 1 reports that it was refused.
			for p.Load64(0, ws, 0) != 2 {
				p.Compute(time.Microsecond)
			}
			p.Unlock(0, lk) // still this rank's: must not panic
		} else {
			for p.Load64(0, ws, 0) != 1 {
				p.Compute(time.Microsecond)
			}
			refused("rank 1 unlocking the lock rank 0 holds")
			if p.TryLock(0, lk) {
				panic("a refused Unlock released the lock")
			}
			p.Store64(0, ws, 0, 2)
		}
	})
}

// testDeadHolder: a rank dies holding a lock. Nothing frees it behind the
// survivors' backs — it stays held through their acknowledgement of the
// death — until the survivor responsible for it breaks it with
// pgas.BreakLock; then it is an ordinary lock again. f must create
// survivable worlds.
func testDeadHolder(t *testing.T, f Factory) {
	const n, dead = 3, 1
	run(t, f(n), func(p pgas.Proc) {
		lk := p.AllocLock()
		ws := p.AllocWords(2) // on rank 0 — [0]: the lock is held, [1]: entries under the lock
		// The death may be delivered as early as this barrier: the dead
		// rank can leave it while a survivor still has a round to send it.
		fe := unwound(dead, p.Barrier)
		if p.Rank() == dead {
			p.Lock(0, lk)
			p.Store64(0, ws, 0, 1)
			panic(&pgas.FaultError{Rank: dead, Phase: "test", Err: errors.New("dying with the lock held")})
		}
		if fe == nil {
			fe = awaitDeath(p, dead, ws, func() {})
		}
		acknowledge(p, dead, fe)
		if p.Load64(0, ws, 0) != 1 {
			panic("rank 1 died before it took the lock")
		}
		if p.TryLock(0, lk) {
			panic("a dead holder's lock was free before anyone broke it")
		}
		p.Barrier() // over the live membership
		if p.Rank() == 0 {
			if pgas.BreakLock(p, 0, lk, 2) {
				panic("BreakLock took the lock from a rank that does not hold it")
			}
			if !pgas.BreakLock(p, 0, lk, dead) || pgas.BreakLock(p, 0, lk, dead) {
				panic("BreakLock must free the dead holder's lock, once")
			}
		}
		p.Barrier()
		p.Lock(0, lk)
		p.Store64(0, ws, 1, p.Load64(0, ws, 1)+1)
		p.Unlock(0, lk)
		p.Barrier()
		if got := p.Load64(0, ws, 1); got != n-1 {
			panic(fmt.Sprintf("%d entries under the broken lock, want %d", got, n-1))
		}
	})
}
