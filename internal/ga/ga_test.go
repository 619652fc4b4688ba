package ga_test

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"scioto/internal/ga"
	"scioto/internal/pgas"
	"scioto/internal/pgas/dsim"
	"scioto/internal/pgas/shm"
)

func forBothTransports(t *testing.T, n int, body func(p pgas.Proc)) {
	t.Helper()
	for _, tr := range []struct {
		name string
		mk   func() pgas.World
	}{
		{"shm", func() pgas.World { return shm.NewWorld(shm.Config{NProcs: n, Seed: 5}) }},
		{"dsim", func() pgas.World { return dsim.NewWorld(dsim.Config{NProcs: n, Seed: 5}) }},
	} {
		t.Run(tr.name, func(t *testing.T) {
			if err := tr.mk().Run(body); err != nil {
				t.Fatalf("world failed: %v", err)
			}
		})
	}
}

// TestScatterGatherRoundTrip: distributing a matrix and reassembling it is
// the identity, for awkward shapes that exercise partial edge blocks.
func TestScatterGatherRoundTrip(t *testing.T) {
	forBothTransports(t, 3, func(p pgas.Proc) {
		for _, s := range awkwardShapes {
			a := ga.New(p, s.rows, s.cols, s.br, s.bc)
			if p.Rank() == 0 {
				m := make([]float64, s.rows*s.cols)
				for i := range m {
					m[i] = float64(i)*1.5 - 3
				}
				a.ScatterFrom(m)
			}
			p.Barrier()
			got := a.Gather()
			for i := range got {
				if got[i] != float64(i)*1.5-3 {
					panic(fmt.Sprintf("shape %+v: element %d = %v, want %v", s, i, got[i], float64(i)*1.5-3))
				}
			}
			p.Barrier()
		}
	})
}

// TestBlockOwnershipAgrees: every rank computes the same owner map, and
// each block is owned by exactly one rank.
func TestBlockOwnershipAgrees(t *testing.T) {
	forBothTransports(t, 4, func(p pgas.Proc) {
		a := ga.New(p, 12, 12, 3, 4)
		seg := p.AllocWords(a.NumBlockRows() * a.NumBlockCols())
		for bi := 0; bi < a.NumBlockRows(); bi++ {
			for bj := 0; bj < a.NumBlockCols(); bj++ {
				owner := a.Owner(bi, bj)
				if owner < 0 || owner >= p.NProcs() {
					panic("owner out of range")
				}
				// Record rank 0's view; everyone else compares.
				idx := bi*a.NumBlockCols() + bj
				if p.Rank() == 0 {
					p.Store64(0, seg, idx, int64(owner)+1)
				}
			}
		}
		p.Barrier()
		for bi := 0; bi < a.NumBlockRows(); bi++ {
			for bj := 0; bj < a.NumBlockCols(); bj++ {
				idx := bi*a.NumBlockCols() + bj
				if got := p.Load64(0, seg, idx); got != int64(a.Owner(bi, bj))+1 {
					panic("ranks disagree on block ownership")
				}
			}
		}
	})
}

// TestPutGetBlock: block round trips across owners, including edge blocks.
func TestPutGetBlock(t *testing.T) {
	forBothTransports(t, 3, func(p pgas.Proc) {
		a := ga.New(p, 10, 10, 4, 4)
		p.Barrier()
		// Each rank writes the blocks whose linear index ≡ rank (mod P)
		// (i.e. blocks it owns) — then everyone reads everything.
		blk := make([]float64, 16)
		for bi := 0; bi < a.NumBlockRows(); bi++ {
			for bj := 0; bj < a.NumBlockCols(); bj++ {
				if a.Owner(bi, bj) != p.Rank() {
					continue
				}
				r, c := a.BlockDims(bi, bj)
				for k := 0; k < r*c; k++ {
					blk[k] = float64(bi*100 + bj*10 + k)
				}
				a.PutBlock(bi, bj, blk)
			}
		}
		p.Barrier()
		got := make([]float64, 16)
		for bi := 0; bi < a.NumBlockRows(); bi++ {
			for bj := 0; bj < a.NumBlockCols(); bj++ {
				r, c := a.GetBlock(bi, bj, got)
				for k := 0; k < r*c; k++ {
					if got[k] != float64(bi*100+bj*10+k) {
						panic(fmt.Sprintf("block (%d,%d)[%d] = %v", bi, bj, k, got[k]))
					}
				}
			}
		}
	})
}

// TestAccBlockSums: concurrent accumulates land exactly.
func TestAccBlockSums(t *testing.T) {
	const n = 4
	const reps = 25
	forBothTransports(t, n, func(p pgas.Proc) {
		a := ga.New(p, 6, 6, 3, 3)
		p.Barrier()
		contrib := make([]float64, 9)
		for k := range contrib {
			contrib[k] = 0.5 // exact in fp
		}
		for r := 0; r < reps; r++ {
			for bi := 0; bi < a.NumBlockRows(); bi++ {
				for bj := 0; bj < a.NumBlockCols(); bj++ {
					a.AccBlock(bi, bj, contrib)
				}
			}
		}
		p.Barrier()
		m := a.Gather()
		want := 0.5 * n * reps
		for i, v := range m {
			if v != want {
				panic(fmt.Sprintf("element %d = %v, want %v", i, v, want))
			}
		}
	})
}

// TestElementGetSet: single-element convenience access.
func TestElementGetSet(t *testing.T) {
	forBothTransports(t, 2, func(p pgas.Proc) {
		a := ga.New(p, 7, 5, 3, 2)
		p.Barrier()
		if p.Rank() == 0 {
			for i := 0; i < 7; i++ {
				for j := 0; j < 5; j++ {
					a.Set(i, j, float64(i*10+j))
				}
			}
		}
		p.Barrier()
		for i := 0; i < 7; i++ {
			for j := 0; j < 5; j++ {
				if got := a.Get(i, j); got != float64(i*10+j) {
					panic(fmt.Sprintf("(%d,%d) = %v", i, j, got))
				}
			}
		}
	})
}

// TestFillLocal: collective fill covers the whole array exactly once.
func TestFillLocal(t *testing.T) {
	forBothTransports(t, 3, func(p pgas.Proc) {
		a := ga.New(p, 9, 9, 2, 5)
		a.FillLocal(2.75)
		p.Barrier()
		for _, v := range a.Gather() {
			if v != 2.75 {
				panic(fmt.Sprintf("fill produced %v", v))
			}
		}
	})
}

// TestCounterDrainsExactly: the shared counter hands out each index once.
func TestCounterDrainsExactly(t *testing.T) {
	const n = 4
	const limit = 100
	forBothTransports(t, n, func(p pgas.Proc) {
		c := ga.NewCounter(p, 0)
		claim := p.AllocWords(limit)
		p.Barrier()
		for {
			v := c.Next()
			if v >= limit {
				break
			}
			if prev := p.FetchAdd64(0, claim, int(v), 1); prev != 0 {
				panic(fmt.Sprintf("index %d claimed twice", v))
			}
		}
		p.Barrier()
		if p.Rank() == 0 {
			for i := 0; i < limit; i++ {
				if p.Load64(0, claim, i) != 1 {
					panic(fmt.Sprintf("index %d never claimed", i))
				}
			}
		}
	})
}

// TestCounterReset: a counter restarts from zero after Reset.
func TestCounterReset(t *testing.T) {
	forBothTransports(t, 2, func(p pgas.Proc) {
		c := ga.NewCounter(p, 1)
		p.Barrier()
		c.Next()
		p.Barrier()
		if p.Rank() == 0 {
			c.Reset()
		}
		p.Barrier()
		if v := c.Value(); v != 0 {
			panic(fmt.Sprintf("counter after reset = %d", v))
		}
	})
}

// TestBlockDimsQuick: block dims always tile the matrix exactly.
func TestBlockDimsQuick(t *testing.T) {
	w := shm.NewWorld(shm.Config{NProcs: 1, Seed: 1})
	if err := w.Run(func(p pgas.Proc) {
		f := func(rows8, cols8, br8, bc8 uint8) bool {
			rows, cols := int(rows8%40)+1, int(cols8%40)+1
			br, bc := int(br8%12)+1, int(bc8%12)+1
			a := ga.New(p, rows, cols, br, bc)
			totalElems := 0
			for bi := 0; bi < a.NumBlockRows(); bi++ {
				for bj := 0; bj < a.NumBlockCols(); bj++ {
					r, c := a.BlockDims(bi, bj)
					if r <= 0 || c <= 0 || r > br || c > bc {
						return false
					}
					totalElems += r * c
				}
			}
			return totalElems == rows*cols
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			panic(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestGatherMatchesSum: spot-check Gather against elementwise Get.
func TestGatherMatchesSum(t *testing.T) {
	forBothTransports(t, 3, func(p pgas.Proc) {
		a := ga.New(p, 6, 8, 4, 3)
		if p.Rank() == 0 {
			m := make([]float64, 48)
			for i := range m {
				m[i] = math.Sqrt(float64(i + 1))
			}
			a.ScatterFrom(m)
		}
		p.Barrier()
		g := a.Gather()
		for i := 0; i < 6; i++ {
			for j := 0; j < 8; j++ {
				if g[i*8+j] != a.Get(i, j) {
					panic(fmt.Sprintf("gather/get mismatch at (%d,%d)", i, j))
				}
			}
		}
	})
}
