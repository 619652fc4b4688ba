package dsim_test

import (
	"testing"
	"time"

	"scioto/internal/obs"
	"scioto/internal/pgas"
	"scioto/internal/pgas/dsim"
	"scioto/internal/pgas/faulty"
	"scioto/internal/pgas/instr"
	"scioto/internal/pgas/pgastest"
)

func newWorld(n int) pgas.World {
	return dsim.NewWorld(dsim.Config{NProcs: n, Seed: 1})
}

func TestConformance(t *testing.T) {
	pgastest.RunConformanceOptions(t, newWorld, pgastest.Options{
		Survivable: func(n int) pgas.World {
			return dsim.NewWorld(dsim.Config{NProcs: n, Seed: 1, Survivable: true})
		},
		MapsSegments: true,
	})
}

// TestVirtualTimeCharges checks the cost model: a remote get must charge at
// least the configured latency, a local one less.
func TestVirtualTimeCharges(t *testing.T) {
	cfg := dsim.Config{
		NProcs:      2,
		Latency:     10 * time.Microsecond,
		LocalOpCost: 100 * time.Nanosecond,
		Seed:        1,
	}
	var localCost, remoteCost time.Duration
	w := dsim.NewWorld(cfg)
	if err := w.Run(func(p pgas.Proc) {
		seg := p.AllocData(64)
		buf := make([]byte, 64)
		if p.Rank() == 0 {
			t0 := p.Now()
			p.Get(buf, 0, seg, 0)
			localCost = p.Now() - t0
			t0 = p.Now()
			p.Get(buf, 1, seg, 0)
			remoteCost = p.Now() - t0
		}
	}); err != nil {
		t.Fatal(err)
	}
	if localCost != 100*time.Nanosecond {
		t.Errorf("local get cost = %v, want 100ns", localCost)
	}
	if remoteCost < 10*time.Microsecond {
		t.Errorf("remote get cost = %v, want >= 10µs", remoteCost)
	}
}

// TestPerByteBandwidth checks the bandwidth term scales with transfer size.
func TestPerByteBandwidth(t *testing.T) {
	cfg := dsim.Config{
		NProcs:  2,
		Latency: time.Microsecond,
		PerByte: time.Nanosecond,
		Seed:    1,
	}
	var small, large time.Duration
	w := dsim.NewWorld(cfg)
	if err := w.Run(func(p pgas.Proc) {
		seg := p.AllocData(4096)
		if p.Rank() == 0 {
			buf := make([]byte, 16)
			t0 := p.Now()
			p.Get(buf, 1, seg, 0)
			small = p.Now() - t0
			big := make([]byte, 4096)
			t0 = p.Now()
			p.Get(big, 1, seg, 0)
			large = p.Now() - t0
		}
	}); err != nil {
		t.Fatal(err)
	}
	if want := time.Microsecond + 16*time.Nanosecond; small != want {
		t.Errorf("small get = %v, want %v", small, want)
	}
	if want := time.Microsecond + 4096*time.Nanosecond; large != want {
		t.Errorf("large get = %v, want %v", large, want)
	}
}

// TestDeterminism: the same seeded program must produce the identical final
// virtual time and data, run after run.
func TestDeterminism(t *testing.T) {
	runOnce := func() (time.Duration, int64) {
		var final time.Duration
		var sum int64
		w := dsim.NewWorld(dsim.Config{NProcs: 8, Seed: 42})
		if err := w.Run(func(p pgas.Proc) {
			ws := p.AllocWords(1)
			lk := p.AllocLock()
			for i := 0; i < 50; i++ {
				victim := p.Rand().Intn(p.NProcs())
				p.Lock(victim, lk)
				p.FetchAdd64(victim, ws, 0, int64(p.Rank()+1))
				p.Unlock(victim, lk)
				p.Compute(time.Duration(p.Rand().Intn(1000)) * time.Nanosecond)
			}
			p.Barrier()
			if p.Rank() == 0 {
				for r := 0; r < p.NProcs(); r++ {
					sum += p.Load64(r, ws, 0)
				}
				final = p.Now()
			}
		}); err != nil {
			t.Fatal(err)
		}
		return final, sum
	}
	t1, s1 := runOnce()
	t2, s2 := runOnce()
	if t1 != t2 || s1 != s2 {
		t.Errorf("nondeterministic simulation: (%v,%d) vs (%v,%d)", t1, s1, t2, s2)
	}
}

// TestHeterogeneousSpeed: a rank with factor 2 accumulates twice the compute
// virtual time.
func TestHeterogeneousSpeed(t *testing.T) {
	var times [2]time.Duration
	w := dsim.NewWorld(dsim.Config{
		NProcs: 2,
		Seed:   1,
		SpeedFactor: func(rank int) float64 {
			return float64(rank + 1)
		},
	})
	if err := w.Run(func(p pgas.Proc) {
		t0 := p.Now()
		p.Compute(time.Millisecond)
		times[p.Rank()] = p.Now() - t0
	}); err != nil {
		t.Fatal(err)
	}
	if times[0] != time.Millisecond || times[1] != 2*time.Millisecond {
		t.Errorf("compute charges = %v, want [1ms 2ms]", times)
	}
}

// TestDeadlockDetected: mutually blocking receives must be diagnosed rather
// than hanging the test binary.
func TestDeadlockDetected(t *testing.T) {
	w := dsim.NewWorld(dsim.Config{NProcs: 2, Seed: 1})
	err := w.Run(func(p pgas.Proc) {
		p.Recv(1-p.Rank(), 5) // nobody ever sends
	})
	if err == nil {
		t.Fatal("expected deadlock error")
	}
}

// TestMaxVirtualTime: a runaway poll loop is cut off.
func TestMaxVirtualTime(t *testing.T) {
	w := dsim.NewWorld(dsim.Config{NProcs: 1, Seed: 1, MaxVirtualTime: time.Millisecond})
	err := w.Run(func(p pgas.Proc) {
		for {
			if _, _, ok := p.TryRecv(pgas.AnySource, 1); ok {
				return
			}
		}
	})
	if err == nil {
		t.Fatal("expected MaxVirtualTime error")
	}
}

// TestBarrierCostLogP: the dissemination barrier's virtual cost must grow
// roughly logarithmically with P.
func TestBarrierCostLogP(t *testing.T) {
	cost := func(n int) time.Duration {
		var d time.Duration
		w := dsim.NewWorld(dsim.Config{NProcs: n, Seed: 1, MsgLatency: 10 * time.Microsecond})
		if err := w.Run(func(p pgas.Proc) {
			p.Barrier() // warm-up aligns clocks
			t0 := p.Now()
			p.Barrier()
			if p.Rank() == 0 {
				d = p.Now() - t0
			}
		}); err != nil {
			t.Fatal(err)
		}
		return d
	}
	c2, c64 := cost(2), cost(64)
	if c64 <= c2 {
		t.Errorf("barrier cost did not grow with P: P=2 %v, P=64 %v", c2, c64)
	}
	if c64 > 20*c2 {
		t.Errorf("barrier cost grew superlogarithmically: P=2 %v, P=64 %v", c2, c64)
	}
}

// TestLockContentionCharged: contended locks must cost more virtual time
// than uncontended ones.
func TestLockContentionCharged(t *testing.T) {
	elapsed := func(n int) time.Duration {
		var d time.Duration
		w := dsim.NewWorld(dsim.Config{NProcs: n, Seed: 1})
		if err := w.Run(func(p pgas.Proc) {
			lk := p.AllocLock()
			p.Barrier()
			t0 := p.Now()
			for i := 0; i < 20; i++ {
				p.Lock(0, lk)
				p.Compute(5 * time.Microsecond)
				p.Unlock(0, lk)
			}
			p.Barrier()
			if p.Rank() == 0 {
				d = p.Now() - t0
			}
		}); err != nil {
			t.Fatal(err)
		}
		return d
	}
	if one, four := elapsed(1), elapsed(4); four < 2*one {
		t.Errorf("4-way contention (%v) not appreciably slower than solo (%v)", four, one)
	}
}

// TestOccupancySerializesHotTarget: with the occupancy model on, N
// processes hammering one word must take ~N*occupancy, not ~latency.
func TestOccupancySerializesHotTarget(t *testing.T) {
	elapsed := func(n int, occ time.Duration) time.Duration {
		var d time.Duration
		w := dsim.NewWorld(dsim.Config{
			NProcs:    n,
			Seed:      1,
			Latency:   2 * time.Microsecond,
			Occupancy: occ,
		})
		if err := w.Run(func(p pgas.Proc) {
			ws := p.AllocWords(1)
			p.Barrier()
			t0 := p.Now()
			if p.Rank() != 0 {
				for i := 0; i < 50; i++ {
					p.FetchAdd64(0, ws, 0, 1)
				}
			}
			p.Barrier()
			if p.Rank() == 0 {
				d = p.Now() - t0
			}
		}); err != nil {
			t.Fatal(err)
		}
		return d
	}
	free := elapsed(9, 0)
	busy := elapsed(9, 1*time.Microsecond)
	// 8 procs * 50 ops * 1µs occupancy = 400µs of serialized interface time.
	if busy < 2*free {
		t.Errorf("occupancy had no effect: free=%v busy=%v", free, busy)
	}
	if busy < 350*time.Microsecond {
		t.Errorf("hot counter not serialized: busy=%v, want >= ~400µs", busy)
	}
}

// TestBoundedWaiting: a blocking op into a target that 62 ranks keep
// polling with flushed loads is served in issue order. It waits for the
// slots booked before it was issued, at most one per poller, and no slot a
// poller books after it: it completes within its latency plus 62
// occupancies, long before the polling stops.
func TestBoundedWaiting(t *testing.T) {
	const (
		n       = 64
		latency = 2 * time.Microsecond
		occ     = 300 * time.Nanosecond
		polling = 200 * time.Microsecond
	)
	var elapsed time.Duration
	w := dsim.NewWorld(dsim.Config{NProcs: n, Seed: 1, Latency: latency, Occupancy: occ})
	if err := w.Run(func(p pgas.Proc) {
		ws := p.AllocWords(1)
		p.Barrier()
		t0 := p.Now()
		switch p.Rank() {
		case 0:
		case 1:
			p.Compute(20 * time.Microsecond) // the pollers hold the interface by now
			t1 := p.Now()
			p.Load64(0, ws, 0)
			elapsed = p.Now() - t1
		default:
			var v int64
			for p.Now()-t0 < polling {
				p.NbLoad64(0, ws, 0, &v)
				p.Flush()
			}
		}
		p.Barrier()
	}); err != nil {
		t.Fatal(err)
	}
	if bound := latency + (n-2)*occ; elapsed < latency || elapsed > bound {
		t.Errorf("blocking Load64 behind %d pollers took %v, want between %v and %v", n-2, elapsed, latency, bound)
	}
}

// TestOccupancyIdleTargetCheap: with no contention, occupancy adds no
// latency to the initiator.
func TestOccupancyIdleTargetCheap(t *testing.T) {
	w := dsim.NewWorld(dsim.Config{
		NProcs:    2,
		Seed:      1,
		Latency:   2 * time.Microsecond,
		Occupancy: time.Microsecond,
	})
	if err := w.Run(func(p pgas.Proc) {
		ws := p.AllocWords(1)
		p.Barrier()
		if p.Rank() == 0 {
			t0 := p.Now()
			p.Load64(1, ws, 0)
			if got := p.Now() - t0; got != 2*time.Microsecond+8*time.Nanosecond*0 {
				// Cost is latency only (PerByte is 0 here).
				if got != 2*time.Microsecond {
					panic("uncontended op should cost exactly the latency")
				}
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestEdgeCases(t *testing.T) {
	pgastest.RunEdgeCases(t, newWorld)
}

// TestConformanceWithOccupancy: the full conformance suite also holds with
// the occupancy model enabled.
func TestConformanceWithOccupancy(t *testing.T) {
	pgastest.RunConformance(t, func(n int) pgas.World {
		return dsim.NewWorld(dsim.Config{NProcs: n, Seed: 1, Occupancy: time.Microsecond})
	})
}

// TestAbortUnblocksWaitingReceivers: when one rank panics, ranks blocked in
// Recv must be torn down rather than hanging the world.
func TestAbortUnblocksWaitingReceivers(t *testing.T) {
	w := dsim.NewWorld(dsim.Config{NProcs: 3, Seed: 1})
	err := w.Run(func(p pgas.Proc) {
		if p.Rank() == 0 {
			p.Compute(time.Millisecond)
			panic("rank 0 dies")
		}
		p.Recv(0, 9) // never satisfied
	})
	if err == nil {
		t.Fatal("expected an error")
	}
}

// TestMessageOrderRandomizedQuick: per-(pair, tag) FIFO order holds under
// randomized send bursts and receiver progress.
func TestMessageOrderRandomizedQuick(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		w := dsim.NewWorld(dsim.Config{NProcs: 3, Seed: seed})
		if err := w.Run(func(p pgas.Proc) {
			const per = 40
			switch p.Rank() {
			case 0:
				for i := 0; i < per; i++ {
					p.Send(2, 1, []byte{byte(i)})
					if p.Rand().Intn(2) == 0 {
						p.Compute(time.Duration(p.Rand().Intn(5000)) * time.Nanosecond)
					}
				}
			case 1:
				for i := 0; i < per; i++ {
					p.Send(2, 1, []byte{byte(i)})
					p.Compute(time.Duration(p.Rand().Intn(3000)) * time.Nanosecond)
				}
			case 2:
				next := map[int]byte{0: 0, 1: 0}
				for i := 0; i < 2*per; i++ {
					data, src := p.Recv(pgas.AnySource, 1)
					if data[0] != next[src] {
						panic("per-pair FIFO violated")
					}
					next[src]++
				}
			}
		}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestSpeedFactorAffectsBarrierSkew: slow ranks arrive at barriers later,
// and the barrier charges the waiters accordingly.
func TestSpeedFactorAffectsBarrierSkew(t *testing.T) {
	var fastWait, slowArrive time.Duration
	w := dsim.NewWorld(dsim.Config{
		NProcs: 2,
		Seed:   1,
		SpeedFactor: func(r int) float64 {
			if r == 1 {
				return 3.0
			}
			return 1.0
		},
	})
	if err := w.Run(func(p pgas.Proc) {
		p.Compute(time.Millisecond) // 1ms fast, 3ms slow
		if p.Rank() == 0 {
			t0 := p.Now()
			p.Barrier()
			fastWait = p.Now() - t0
		} else {
			slowArrive = p.Now()
			p.Barrier()
		}
	}); err != nil {
		t.Fatal(err)
	}
	if slowArrive < 3*time.Millisecond {
		t.Errorf("slow rank arrived at %v, want >= 3ms", slowArrive)
	}
	if fastWait < 2*time.Millisecond {
		t.Errorf("fast rank waited %v, want ~2ms of skew", fastWait)
	}
}

// TestCapabilitiesThroughWrappers: what pgas.Find reaches through
// instr∘faulty is what the bare transport offers.
func TestCapabilitiesThroughWrappers(t *testing.T) {
	pgastest.RunCapabilities(t, func(n int) pgas.World {
		w := dsim.NewWorld(dsim.Config{NProcs: n, Seed: 6, Survivable: true})
		w = faulty.Wrap(w, faulty.Config{Seed: 3, DelayProb: 0.2, MaxDelay: 20 * time.Microsecond, CrashRank: faulty.NoCrash})
		return instr.Wrap(w, obs.NewHub(), instr.Options{})
	})
}
