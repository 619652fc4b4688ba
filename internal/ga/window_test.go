package ga_test

import (
	"fmt"
	"testing"

	"scioto/internal/apptest"
	"scioto/internal/ga"
	"scioto/internal/pgas"
	"scioto/internal/pgas/dsim"
	"scioto/internal/pgas/shm"
)

// awkwardShapes exercise partial edge blocks, a single partial block, a
// one-row array and a one-block array, on three ranks.
var awkwardShapes = []struct{ rows, cols, br, bc int }{
	{8, 8, 4, 4},
	{10, 7, 3, 2}, // partial edge blocks both ways
	{5, 5, 8, 8},  // single partial block
	{1, 9, 1, 4},
	{16, 16, 16, 16}, // one block
}

// elem is the value the View tests store at element (i, j) in generation g.
func elem(g, i, j int) float64 { return float64(g*10000 + i*100 + j) }

// checkBlock panics unless blk holds block (bi, bj) of generation g.
func checkBlock(a *ga.Array, blk []float64, g, bi, bj int) {
	r, c := a.BlockDims(bi, bj)
	if len(blk) != r*c {
		panic(fmt.Sprintf("block (%d,%d) has %d elements, want %dx%d", bi, bj, len(blk), r, c))
	}
	for x := 0; x < r; x++ {
		for y := 0; y < c; y++ {
			if want := elem(g, bi*a.BlockRows+x, bj*a.BlockCols+y); blk[x*c+y] != want {
				panic(fmt.Sprintf("block (%d,%d)[%d,%d] = %v, want %v", bi, bj, x, y, blk[x*c+y], want))
			}
		}
	}
}

// putGeneration has every rank store generation g into the blocks it owns.
func putGeneration(p pgas.Proc, a *ga.Array, g int) {
	blk := make([]float64, a.BlockRows*a.BlockCols)
	for bi := 0; bi < a.NumBlockRows(); bi++ {
		for bj := 0; bj < a.NumBlockCols(); bj++ {
			if a.Owner(bi, bj) != p.Rank() {
				continue
			}
			r, c := a.BlockDims(bi, bj)
			for x := 0; x < r; x++ {
				for y := 0; y < c; y++ {
					blk[x*c+y] = elem(g, bi*a.BlockRows+x, bj*a.BlockCols+y)
				}
			}
			a.PutBlock(bi, bj, blk)
		}
	}
}

// TestViewFetch: a Fetch brings in exactly what was wanted, whatever the
// list looks like — every block, every other block (no two adjacent in an
// owner's segment), a block wanted twice, only local blocks, nothing — and
// a block read without a Fetch arrives on its own.
func TestViewFetch(t *testing.T) {
	forBothTransports(t, 3, func(p pgas.Proc) {
		for _, s := range awkwardShapes {
			a := ga.New(p, s.rows, s.cols, s.br, s.bc)
			putGeneration(p, a, 1)
			p.Barrier()
			nbr, nbc := a.NumBlockRows(), a.NumBlockCols()
			local := func(bi, bj int) bool { return a.Owner(bi, bj) == p.Rank() }
			for _, list := range []struct {
				times int // how often each listed block is wanted
				has   func(bi, bj int) bool
			}{
				{1, func(bi, bj int) bool { return true }},
				{1, func(bi, bj int) bool { return (bi*nbc+bj)%2 == 0 }},
				{2, func(bi, bj int) bool { return true }},
				{1, local},
				{0, local},
			} {
				v := ga.NewView(a)
				for bi := 0; bi < nbr; bi++ {
					for bj := 0; bj < nbc; bj++ {
						for n := 0; n < list.times && list.has(bi, bj); n++ {
							v.Want(bi, bj)
						}
					}
				}
				ga.Fetch(v)
				// Wanted or not, every block reads correctly.
				for bi := 0; bi < nbr; bi++ {
					for bj := 0; bj < nbc; bj++ {
						checkBlock(a, v.Block(bi, bj), 1, bi, bj)
					}
				}
			}
			p.Barrier()
		}
	})
}

// TestViewCoherence: a hit returns the cache's own storage; a block another
// rank overwrites is, by contract, not seen after the barrier alone, and is
// seen once the view has been invalidated.
func TestViewCoherence(t *testing.T) {
	forBothTransports(t, 3, func(p pgas.Proc) {
		for _, s := range awkwardShapes {
			a := ga.New(p, s.rows, s.cols, s.br, s.bc)
			putGeneration(p, a, 1)
			p.Barrier()
			v := ga.NewView(a)
			nbr, nbc := a.NumBlockRows(), a.NumBlockCols()
			for bi := 0; bi < nbr; bi++ {
				for bj := 0; bj < nbc; bj++ {
					v.Want(bi, bj)
				}
			}
			ga.Fetch(v)
			first := v.Block(nbr-1, nbc-1)
			if again := v.Block(nbr-1, nbc-1); &again[0] != &first[0] {
				panic("a hit returned different storage")
			}
			p.Barrier()
			putGeneration(p, a, 2)
			p.Barrier()
			for bi := 0; bi < nbr; bi++ {
				for bj := 0; bj < nbc; bj++ {
					checkBlock(a, v.Block(bi, bj), 1, bi, bj)
				}
			}
			v.Invalidate()
			v.Want(0, 0)
			ga.Fetch(v)
			for bi := 0; bi < nbr; bi++ {
				for bj := 0; bj < nbc; bj++ {
					checkBlock(a, v.Block(bi, bj), 2, bi, bj)
				}
			}
			p.Barrier()
		}
	})
}

// TestWindowOpCounts is the host-independent form of the benchmark's
// pgas.get_n row: whatever the array's size, Gather and ScatterFrom issue at
// most one data operation per rank and complete them with exactly one
// Flush, and a View fetches no block twice.
func TestWindowOpCounts(t *testing.T) {
	const n = 4
	err := dsim.NewWorld(dsim.Config{NProcs: n, Seed: 5}).Run(func(bare pgas.Proc) {
		p := apptest.NewOpLog(bare)
		a := ga.New(p, 48, 48, 4, 4)
		m := make([]float64, 48*48)
		for i := range m {
			m[i] = float64(i)
		}
		p.Barrier()
		if p.Rank() == 1 {
			p.Ops = p.Ops[:0]
			a.ScatterFrom(m)
			if ops, fl := p.Count("Put", "NbPut", "Get", "NbGet"), p.Count("Flush"); ops > n || fl != 1 {
				panic(fmt.Sprintf("ScatterFrom issued %d data ops and %d flushes, want at most %d and 1", ops, fl, n))
			}
		}
		p.Barrier()
		p.Ops = p.Ops[:0]
		got := a.Gather()
		if ops, fl := p.Count("Put", "NbPut", "Get", "NbGet"), p.Count("Flush"); ops > n || fl != 1 {
			panic(fmt.Sprintf("Gather issued %d data ops and %d flushes, want at most %d and 1", ops, fl, n))
		}
		for i := range m {
			if got[i] != m[i] {
				panic(fmt.Sprintf("element %d = %v, want %v", i, got[i], m[i]))
			}
		}

		// Overlapping wants, fetched in three windows and then read in full.
		p.Ops = p.Ops[:0]
		v := ga.NewView(a)
		for round := 0; round < 3; round++ {
			for bi := round; bi < 12; bi += 2 {
				for bj := 0; bj < 12; bj++ {
					v.Want(bi, bj)
				}
			}
			ga.Fetch(v)
		}
		for bi := 0; bi < 12; bi++ {
			for bj := 0; bj < 12; bj++ {
				v.Block(bi, bj)
			}
		}
		for seq, k := range apptest.BlockFetches(p.Ops, p.DataSegs[0], 16*pgas.F64Bytes, n, 144) {
			if k != 1 {
				panic(fmt.Sprintf("block %d fetched %d times, want once", seq, k))
			}
		}
		if fl := p.Count("Flush"); fl != 2 {
			panic(fmt.Sprintf("%d flushes, want 2: the third round wants nothing new", fl))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBlockOpsDoNotAllocate: the single-block operations and a View hit
// reuse the array's scratch. shm completes every operation inline, so what
// is measured is this package.
func TestBlockOpsDoNotAllocate(t *testing.T) {
	err := shm.NewWorld(shm.Config{NProcs: 2, Seed: 1}).Run(func(p pgas.Proc) {
		a := ga.New(p, 48, 48, 4, 4)
		p.Barrier()
		if p.Rank() == 0 {
			blk := make([]float64, 16)
			v := ga.NewView(a)
			v.Block(0, 1)
			for name, op := range map[string]func(){
				"GetBlock":   func() { a.GetBlock(0, 1, blk) }, // block (0,1) lives on rank 1
				"PutBlock":   func() { a.PutBlock(0, 1, blk) },
				"AccBlock":   func() { a.AccBlock(0, 1, blk) },
				"View.Block": func() { v.Block(0, 1) },
				"Want+Fetch": func() { v.Want(0, 1); ga.Fetch(v) },
			} {
				if n := testing.AllocsPerRun(100, op); n != 0 {
					panic(fmt.Sprintf("%s allocates %v times per call", name, n))
				}
			}
		}
		p.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}
