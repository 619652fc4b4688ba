package tce_test

import (
	"fmt"
	"testing"
	"time"

	"scioto/internal/apptest"
	"scioto/internal/core"
	"scioto/internal/ga"
	"scioto/internal/pgas"
	"scioto/internal/pgas/dsim"
	"scioto/internal/pgas/shm"
	"scioto/internal/tce"
)

var testParams = tce.Params{NB: 6, BS: 4, Density: 0.4, Band: 1, Seed: 3}

func TestPatternDeterministicAndReplicated(t *testing.T) {
	a := tce.NewPattern(testParams)
	b := tce.NewPattern(testParams)
	for i := range a.A {
		if a.A[i] != b.A[i] || a.B[i] != b.B[i] {
			t.Fatal("pattern not deterministic")
		}
	}
	// Band forces near-diagonal presence.
	for i := 0; i < a.NB; i++ {
		if !a.HasA(i, i) || !a.HasB(i, i) {
			t.Fatal("diagonal band missing")
		}
	}
}

func TestContributionsVary(t *testing.T) {
	pat := tce.NewPattern(testParams)
	min, max := pat.NB+1, -1
	for bi := 0; bi < pat.NB; bi++ {
		for bj := 0; bj < pat.NB; bj++ {
			c := pat.Contributions(bi, bj)
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
	}
	if min == max {
		t.Errorf("no cost irregularity: all output blocks have %d contributions", min)
	}
	t.Logf("contributions per output block: min %d max %d", min, max)
}

// TestCounterMatchesDense: the counter-based contraction is correct on both
// transports.
func TestCounterMatchesDense(t *testing.T) {
	for _, n := range []int{1, 4} {
		worlds := map[string]pgas.World{
			"shm":  shm.NewWorld(shm.Config{NProcs: n, Seed: 31}),
			"dsim": dsim.NewWorld(dsim.Config{NProcs: n, Seed: 31}),
		}
		for name, w := range worlds {
			err := w.Run(func(p pgas.Proc) {
				c := tce.New(p, testParams)
				counter := ga.NewCounter(p, 0)
				c.ResetC()
				c.RunCounter(counter, time.Microsecond)
				p.Barrier()
				if p.Rank() == 0 {
					if err := c.VerifyDense(); err != nil {
						panic(err)
					}
				}
			})
			if err != nil {
				t.Fatalf("P=%d %s: %v", n, name, err)
			}
		}
	}
}

// TestSciotoMatchesDense: the Scioto contraction is correct on both
// transports, including repeated reuse of the collection.
func TestSciotoMatchesDense(t *testing.T) {
	for _, n := range []int{1, 4} {
		worlds := map[string]pgas.World{
			"shm":  shm.NewWorld(shm.Config{NProcs: n, Seed: 37}),
			"dsim": dsim.NewWorld(dsim.Config{NProcs: n, Seed: 37}),
		}
		for name, w := range worlds {
			err := w.Run(func(p pgas.Proc) {
				c := tce.New(p, testParams)
				rt := core.Attach(p)
				var blocks, macs int64
				tc, h := c.NewSciotoTC(rt, core.Config{ChunkSize: 2}, time.Microsecond, &blocks, &macs)
				for rep := 0; rep < 2; rep++ { // reuse across phases
					c.ResetC()
					c.RunScioto(tc, h, time.Microsecond)
					p.Barrier()
					if p.Rank() == 0 {
						if err := c.VerifyDense(); err != nil {
							panic(fmt.Sprintf("rep %d: %v", rep, err))
						}
					}
					p.Barrier()
				}
			})
			if err != nil {
				t.Fatalf("P=%d %s: %v", n, name, err)
			}
		}
	}
}

// TestBothMethodsSameResult: counter and Scioto produce the same output up
// to floating-point accumulation order (the counter path accumulates per
// triple, the Scioto path per output block).
func TestBothMethodsSameResult(t *testing.T) {
	w := dsim.NewWorld(dsim.Config{NProcs: 3, Seed: 41})
	if err := w.Run(func(p pgas.Proc) {
		c := tce.New(p, testParams)
		counter := ga.NewCounter(p, 0)
		rt := core.Attach(p)
		var blocks, macs int64
		tc, h := c.NewSciotoTC(rt, core.Config{ChunkSize: 2}, 0, &blocks, &macs)

		c.ResetC()
		c.RunCounter(counter, 0)
		p.Barrier()
		counterOut := c.C.Gather()
		p.Barrier()

		c.ResetC()
		c.RunScioto(tc, h, 0)
		p.Barrier()
		sciotoOut := c.C.Gather()

		for i := range counterOut {
			if d := counterOut[i] - sciotoOut[i]; d > 1e-9 || d < -1e-9 {
				panic(fmt.Sprintf("outputs differ at element %d: %v vs %v", i, counterOut[i], sciotoOut[i]))
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestEmptyPattern: a fully sparse instance (density 0, no band) completes
// with a zero output.
func TestEmptyPattern(t *testing.T) {
	prm := tce.Params{NB: 4, BS: 2, Density: 1e-9, Band: -1, Seed: 5}
	w := dsim.NewWorld(dsim.Config{NProcs: 2, Seed: 5})
	if err := w.Run(func(p pgas.Proc) {
		c := tce.New(p, prm)
		counter := ga.NewCounter(p, 0)
		c.ResetC()
		res := c.RunCounter(counter, 0)
		p.Barrier()
		if res.MACs != 0 {
			// Density 1e-9 may still fire; only fail if verify fails.
			return
		}
		if p.Rank() == 0 {
			for _, v := range c.C.Gather() {
				if v != 0 {
					panic("empty contraction produced nonzero output")
				}
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestWorkAccounting: the MAC count equals the pattern's contribution sum.
func TestWorkAccounting(t *testing.T) {
	w := dsim.NewWorld(dsim.Config{NProcs: 4, Seed: 43})
	if err := w.Run(func(p pgas.Proc) {
		c := tce.New(p, testParams)
		counter := ga.NewCounter(p, 0)
		c.ResetC()
		res := c.RunCounter(counter, 0)
		// Reduce MACs.
		seg := p.AllocWords(1)
		p.FetchAdd64(0, seg, 0, res.MACs)
		p.Barrier()
		if p.Rank() == 0 {
			want := int64(0)
			pat := c.Pattern()
			for bi := 0; bi < pat.NB; bi++ {
				for bj := 0; bj < pat.NB; bj++ {
					want += int64(pat.Contributions(bi, bj))
				}
			}
			if got := p.Load64(0, seg, 0); got != want {
				panic(fmt.Sprintf("MACs %d, want %d", got, want))
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestOperandBlocksFetchedOnce is the host-independent form of the
// benchmark's pgas.get_n row for this application: with either
// load-balancing method, on four ranks, an operand block reaches a rank at
// most once however many tasks there read it, and no absent block is
// fetched at all.
func TestOperandBlocksFetchedOnce(t *testing.T) {
	const n = 4
	pat := tce.NewPattern(testParams)
	for _, scioto := range []bool{false, true} {
		err := dsim.NewWorld(dsim.Config{NProcs: n, Seed: 31}).Run(func(bare pgas.Proc) {
			p := apptest.NewOpLog(bare)
			c := tce.New(p, testParams)
			c.ResetC()
			p.Ops = p.Ops[:0]
			if scioto {
				var blocks, macs int64
				tc, h := c.NewSciotoTC(core.Attach(p), core.Config{ChunkSize: 2}, time.Microsecond, &blocks, &macs)
				c.RunScioto(tc, h, time.Microsecond)
			} else {
				c.RunCounter(ga.NewCounter(p, 0), time.Microsecond)
			}
			blockBytes := testParams.BS * testParams.BS * pgas.F64Bytes
			for i, present := range [][]bool{pat.A, pat.B} { // New allocates A, then B
				for seq, k := range apptest.BlockFetches(p.Ops, p.DataSegs[i], blockBytes, n, len(present)) {
					if k > 1 || (k == 1 && !present[seq]) {
						panic(fmt.Sprintf("rank %d fetched block %d of operand %d %d times (present: %v)", p.Rank(), seq, i, k, present[seq]))
					}
				}
			}
			p.Barrier()
			if err := c.VerifyDense(); err != nil {
				panic(err)
			}
		})
		if err != nil {
			t.Fatalf("scioto=%v: %v", scioto, err)
		}
	}
}
