package shm_test

import (
	"testing"
	"time"

	"scioto/internal/obs"
	"scioto/internal/pgas"
	"scioto/internal/pgas/faulty"
	"scioto/internal/pgas/instr"
	"scioto/internal/pgas/pgastest"
	"scioto/internal/pgas/shm"
)

func TestConformance(t *testing.T) {
	pgastest.RunConformanceOptions(t, func(n int) pgas.World {
		return shm.NewWorld(shm.Config{NProcs: n, Seed: 1})
	}, pgastest.Options{
		Survivable: func(n int) pgas.World {
			return shm.NewWorld(shm.Config{NProcs: n, Seed: 1, Survivable: true})
		},
		MapsSegments: !shm.RaceBuild,
	})
}

func TestConformanceWithInjectedLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("latency injection spins; skipped in -short")
	}
	pgastest.RunConformance(t, func(n int) pgas.World {
		return shm.NewWorld(shm.Config{
			NProcs:        n,
			Seed:          1,
			RemoteLatency: 2 * time.Microsecond,
		})
	})
}

// TestHeterogeneousCompute checks that SpeedFactor scales spin time in the
// right direction.
func TestHeterogeneousCompute(t *testing.T) {
	w := shm.NewWorld(shm.Config{
		NProcs: 2,
		Seed:   1,
		SpeedFactor: func(rank int) float64 {
			if rank == 0 {
				return 1.0
			}
			return 3.0
		},
	})
	var took [2]time.Duration
	if err := w.Run(func(p pgas.Proc) {
		t0 := time.Now()
		for i := 0; i < 50; i++ {
			p.Compute(100 * time.Microsecond)
		}
		took[p.Rank()] = time.Since(t0)
	}); err != nil {
		t.Fatal(err)
	}
	if took[1] <= took[0] {
		t.Errorf("slow rank (%v) did not take longer than fast rank (%v)", took[1], took[0])
	}
}

// TestNowAdvances checks the wall clock is monotone and positive.
func TestNowAdvances(t *testing.T) {
	w := shm.NewWorld(shm.Config{NProcs: 1, Seed: 1})
	if err := w.Run(func(p pgas.Proc) {
		a := p.Now()
		p.Compute(200 * time.Microsecond)
		b := p.Now()
		if b < a {
			t.Errorf("Now went backwards: %v then %v", a, b)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestEdgeCases(t *testing.T) {
	pgastest.RunEdgeCases(t, func(n int) pgas.World {
		return shm.NewWorld(shm.Config{NProcs: n, Seed: 2})
	})
}

// TestAllocWhilePeerOperates is the -race regression for the segment and
// lock tables: collective allocation is not a barrier, so one rank may be
// appending its next segments while a peer still operates on an existing
// one. The operation path must read the tables without racing the append.
func TestAllocWhilePeerOperates(t *testing.T) {
	const extra = 200
	w := shm.NewWorld(shm.Config{NProcs: 2, Seed: 5})
	err := w.Run(func(p pgas.Proc) {
		words := p.AllocWords(2) // on rank 1 — word 0: hammered counter, word 1: done flag
		data := p.AllocData(64)
		lk := p.AllocLock()
		p.Barrier()
		allocMore := func() {
			for i := 0; i < extra; i++ {
				p.AllocWords(1)
				p.AllocData(8)
				p.AllocLock()
			}
		}
		if p.Rank() == 1 {
			allocMore()
			p.Store64(1, words, 1, 1)
		} else {
			buf := make([]byte, 8)
			for p.Load64(1, words, 1) == 0 {
				p.FetchAdd64(1, words, 0, 1)
				p.Put(1, data, 0, buf)
				p.Get(buf, 1, data, 8)
				p.RelaxedLoad64(words, 0)
				p.Local(data)[0]++
				p.Lock(1, lk)
				p.Unlock(1, lk)
			}
			allocMore()
		}
		p.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// wrapped is the facade's stack over a survivable shm world: instr over
// faulty (delays only) over the transport.
func wrapped(n int) pgas.World {
	w := shm.NewWorld(shm.Config{NProcs: n, Seed: 6, Survivable: true})
	w = faulty.Wrap(w, faulty.Config{Seed: 3, DelayProb: 0.2, MaxDelay: 20 * time.Microsecond, CrashRank: faulty.NoCrash})
	return instr.Wrap(w, obs.NewHub(), instr.Options{})
}

// TestCapabilitiesThroughWrappers: what pgas.Find reaches through
// instr∘faulty is what the bare transport offers.
func TestCapabilitiesThroughWrappers(t *testing.T) {
	pgastest.RunCapabilities(t, wrapped)
}

// TestLocalStableThroughWrappers: the wrappers pass Local through, so the
// promise that core's queue resolves its ring once on holds under them.
func TestLocalStableThroughWrappers(t *testing.T) {
	pgastest.RunLocalStable(t, wrapped)
}

// TestLocksThroughWrappers: the lock sits above the wrappers (it is built
// on CAS64 in pgas.Front), so the whole lock group — the dead holder's
// broken lock included — must hold with both of them underneath it.
func TestLocksThroughWrappers(t *testing.T) {
	pgastest.RunLocks(t, wrapped, pgastest.Options{Survivable: wrapped})
}
