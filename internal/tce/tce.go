// Package tce implements the paper's third application: a representative
// sparse tensor contraction kernel from the Tensor Contraction Engine
// (Baumgartner et al.), the code generator behind coupled-cluster methods.
//
// The kernel contracts two block-sparse operands held in Global Arrays into
// a distributed output array: C[i,j] += sum_k A[i,k] * B[k,j], where only
// the blocks marked present in a replicated sparsity pattern exist. The
// irregularity dynamic load balancing must absorb comes from that sparsity:
// the number of surviving (bi, bk, bj) contributions — and hence the cost
// of producing each output block — varies wildly across the output.
//
// Two load-balancing schemes mirror the paper's comparison: the original
// shared global counter over a replicated task list (TCE-Original), and a
// Scioto task collection seeded with one task per locally-owned output
// block (locality-aware, stolen when imbalance develops).
package tce

import (
	"fmt"
	"math/rand"
	"time"

	"scioto/internal/core"
	"scioto/internal/ga"
	"scioto/internal/linalg"
	"scioto/internal/pgas"
)

// Params describes a contraction instance.
type Params struct {
	// NB is the number of blocks per tensor dimension.
	NB int
	// BS is the (square) block edge in elements.
	BS int
	// Density is the probability that a block of A or B is present.
	Density float64
	// Band additionally forces blocks within this distance of the
	// diagonal to be present (structured sparsity, as in coupled-cluster
	// amplitudes). Negative disables.
	Band int
	// Seed determines the sparsity pattern and the synthetic block data.
	Seed int64
}

func (p Params) withDefaults() Params {
	if p.NB == 0 {
		p.NB = 8
	}
	if p.BS == 0 {
		p.BS = 4
	}
	if p.Density == 0 {
		p.Density = 0.35
	}
	return p
}

// Pattern is the replicated block-sparsity map of the two operands.
type Pattern struct {
	NB   int
	A, B []bool // NB*NB, row-major
}

// NewPattern derives the deterministic sparsity pattern for the parameters.
func NewPattern(p Params) *Pattern {
	p = p.withDefaults()
	rng := rand.New(rand.NewSource(p.Seed*40503 + 7))
	pat := &Pattern{NB: p.NB, A: make([]bool, p.NB*p.NB), B: make([]bool, p.NB*p.NB)}
	fill := func(dst []bool) {
		for i := 0; i < p.NB; i++ {
			for j := 0; j < p.NB; j++ {
				inBand := p.Band >= 0 && abs(i-j) <= p.Band
				dst[i*p.NB+j] = inBand || rng.Float64() < p.Density
			}
		}
	}
	fill(pat.A)
	fill(pat.B)
	return pat
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// HasA reports whether block (bi, bk) of A is present.
func (pt *Pattern) HasA(bi, bk int) bool { return pt.A[bi*pt.NB+bk] }

// HasB reports whether block (bk, bj) of B is present.
func (pt *Pattern) HasB(bk, bj int) bool { return pt.B[bk*pt.NB+bj] }

// Contributions counts the surviving k-contributions for output block
// (bi, bj) — the per-task cost profile.
func (pt *Pattern) Contributions(bi, bj int) int {
	n := 0
	for bk := 0; bk < pt.NB; bk++ {
		if pt.HasA(bi, bk) && pt.HasB(bk, bj) {
			n++
		}
	}
	return n
}

// element is the deterministic synthetic value of operand element (i, j).
func element(which byte, i, j int) float64 {
	h := uint64(which)*1000003 + uint64(i)*131071 + uint64(j)*8191
	h ^= h >> 13
	h *= 0x9e3779b97f4a7c15
	h ^= h >> 29
	return float64(h%2048)/1024.0 - 1.0
}

// Contraction holds the distributed operands and output of one instance.
type Contraction struct {
	p   pgas.Proc
	prm Params
	pat *Pattern

	A, B, C *ga.Array

	// The operands are immutable once New returns, so every process reads
	// them through caches that are never invalidated.
	va, vb *ga.View
	out    []float64 // output-block scratch
}

// New collectively allocates and fills the operands. Present blocks get
// deterministic synthetic data; absent blocks are zero.
func New(p pgas.Proc, prm Params) *Contraction {
	prm = prm.withDefaults()
	c := &Contraction{p: p, prm: prm, pat: NewPattern(prm), out: make([]float64, prm.BS*prm.BS)}
	dim := prm.NB * prm.BS
	c.A = ga.New(p, dim, dim, prm.BS, prm.BS)
	c.B = ga.New(p, dim, dim, prm.BS, prm.BS)
	c.C = ga.New(p, dim, dim, prm.BS, prm.BS)
	// Each process fills the operand blocks it owns.
	blk := c.out
	fill := func(arr *ga.Array, pat []bool, which byte) {
		for bi := 0; bi < prm.NB; bi++ {
			for bj := 0; bj < prm.NB; bj++ {
				if arr.Owner(bi, bj) != p.Rank() {
					continue
				}
				for x := 0; x < prm.BS; x++ {
					for y := 0; y < prm.BS; y++ {
						v := 0.0
						if pat[bi*prm.NB+bj] {
							v = element(which, bi*prm.BS+x, bj*prm.BS+y)
						}
						blk[x*prm.BS+y] = v
					}
				}
				arr.PutBlock(bi, bj, blk)
			}
		}
	}
	fill(c.A, c.pat.A, 'A')
	fill(c.B, c.pat.B, 'B')
	p.Barrier()
	c.va, c.vb = ga.NewView(c.A), ga.NewView(c.B)
	return c
}

// Params returns the (defaulted) instance parameters.
func (c *Contraction) Params() Params { return c.prm }

// Pattern returns the replicated sparsity pattern.
func (c *Contraction) Pattern() *Pattern { return c.pat }

// ResetC zeroes the output array. Collective.
func (c *Contraction) ResetC() {
	c.C.ZeroLocal()
	c.p.Barrier()
}

// Result reports one contraction run.
type Result struct {
	// Elapsed is the virtual/wall time of the contraction phase on this
	// process (identical across processes up to the closing barrier).
	Elapsed time.Duration
	// BlocksComputed is the number of output-block tasks this process ran.
	BlocksComputed int64
	// MACs is the number of block multiply-accumulate kernels this process
	// executed (the cost unit).
	MACs int64
	// TaskStats holds Scioto counters (Scioto run only).
	TaskStats core.Stats
}

// computeBlock adds to output block (bi, bj) the contributions of the
// inner blocks [bkLo, bkHi): the surviving operand block pairs that are not
// cached yet arrive in one window, the multiply-accumulates read them in
// place, and the result goes into C with one atomic GA accumulate. perMAC
// is the modeled cost of one block multiply (the real dgemm the synthetic
// data stands in for). It returns the number of block multiplies.
func (c *Contraction) computeBlock(bi, bj, bkLo, bkHi int, perMAC time.Duration) int64 {
	bs := c.prm.BS
	var macs int64
	for bk := bkLo; bk < bkHi; bk++ {
		if c.pat.HasA(bi, bk) && c.pat.HasB(bk, bj) {
			c.va.Want(bi, bk)
			c.vb.Want(bk, bj)
			macs++
		}
	}
	if macs == 0 {
		return 0
	}
	ga.Fetch(c.va, c.vb)
	clear(c.out)
	for bk := bkLo; bk < bkHi; bk++ {
		if c.pat.HasA(bi, bk) && c.pat.HasB(bk, bj) {
			linalg.GemmBlock(c.out, c.va.Block(bi, bk), c.vb.Block(bk, bj), bs, bs, bs)
		}
	}
	if perMAC > 0 {
		c.p.Compute(time.Duration(macs) * perMAC)
	}
	c.C.AccBlock(bi, bj, c.out)
	return macs
}

// RunCounter performs the contraction with the original TCE scheme: the
// task list is the full dense loop nest of candidate (bi, bj, bk) triples,
// and every process draws the next candidate index from a global counter
// hosted on rank 0 (NGA_Read_inc). Candidates whose operand blocks are
// absent cost a counter draw but no work — the sparsity-induced overhead
// the paper's TCE suffers from — and the counter host serializes all
// draws, which is what caps the original's scaling. Collective; the output
// must have been reset.
func (c *Contraction) RunCounter(counter *ga.Counter, perMAC time.Duration) Result {
	p := c.p
	if p.Rank() == 0 {
		counter.Reset()
	}
	p.Barrier()
	t0 := p.Now()
	var res Result
	nb := int64(c.prm.NB)
	total := nb * nb * nb
	for {
		idx := counter.Next()
		if idx >= total {
			break
		}
		bk := int(idx % nb)
		n := c.computeBlock(int(idx/(nb*nb)), int(idx/nb%nb), bk, bk+1, perMAC)
		res.MACs += n
		res.BlocksComputed += n
	}
	p.Barrier()
	res.Elapsed = p.Now() - t0
	return res
}

// tceTaskBody encodes two int32 block indices.
const tceTaskBody = 8

// RunScioto performs the contraction with a Scioto task collection: one
// task per output block, seeded on the block's owner with high affinity.
// Collective; the output must have been reset. The collection must have
// been created with NewTC and is reset for reuse before returning.
func (c *Contraction) RunScioto(tc *core.TC, handle core.Handle, perMAC time.Duration) Result {
	p := c.p
	p.Barrier()
	t0 := p.Now()
	task := core.NewTask(handle, tceTaskBody)
	for bi := 0; bi < c.prm.NB; bi++ {
		for bj := 0; bj < c.prm.NB; bj++ {
			if c.C.Owner(bi, bj) != p.Rank() {
				continue
			}
			pgas.PutI32(task.Body(), int32(bi))
			pgas.PutI32(task.Body()[4:], int32(bj))
			if err := tc.Add(p.Rank(), core.AffinityHigh, task); err != nil {
				panic(fmt.Sprintf("tce: seed task: %v", err))
			}
		}
	}
	tc.Process()
	res := Result{TaskStats: tc.Stats()}
	res.Elapsed = p.Now() - t0
	tc.Reset()
	return res
}

// NewSciotoTC collectively creates a task collection and registers the
// contraction callback, returning both. The returned result-accumulation
// hooks update the per-process counters passed in.
func (c *Contraction) NewSciotoTC(rt *core.Runtime, cfg core.Config, perMAC time.Duration, blocks, macs *int64) (*core.TC, core.Handle) {
	cfg.MaxBodySize = tceTaskBody
	if cfg.MaxTasks == 0 {
		cfg.MaxTasks = c.prm.NB*c.prm.NB + 16
	}
	tc := core.NewTC(rt, cfg)
	h := tc.Register(func(tc *core.TC, t *core.Task) {
		bi := int(pgas.GetI32(t.Body()))
		bj := int(pgas.GetI32(t.Body()[4:]))
		*macs += c.computeBlock(bi, bj, 0, c.prm.NB, perMAC)
		*blocks++
	})
	return tc, h
}

// VerifyDense gathers the operands and output and checks C == A*B against
// a dense reference multiply. Any process may call it after a contraction
// (plus barrier).
func (c *Contraction) VerifyDense() error {
	dim := c.prm.NB * c.prm.BS
	a := linalg.FromSlice(dim, dim, c.A.Gather())
	b := linalg.FromSlice(dim, dim, c.B.Gather())
	got := linalg.FromSlice(dim, dim, c.C.Gather())
	want := linalg.MatMul(a, b)
	if d := linalg.MaxAbsDiff(got, want); d > 1e-9 {
		return fmt.Errorf("tce: contraction differs from dense reference by %g", d)
	}
	return nil
}
