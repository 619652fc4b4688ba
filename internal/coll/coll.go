// Package coll provides collective communication operations over the pgas
// interface: broadcast, reductions, all-reduce, all-gather, and prefix
// scans, every one of them a call to Proc.AllReduce, the runtime's one
// collective reduction (pgas/allreduce.go).
//
// All operations are collective: every process must call them in the same
// order with compatible arguments.
package coll

import (
	"fmt"
	"math"

	"scioto/internal/pgas"
)

// int64FromF64 and f64FromInt64 bit-transport floats through the int64
// collective machinery.
func int64FromF64(v float64) int64 { return int64(math.Float64bits(v)) }

func f64FromInt64(b int64) float64 { return math.Float64frombits(uint64(b)) }

// Comm is a handle for collective operations on a world.
type Comm struct {
	p pgas.Proc
}

// New creates a Comm. It allocates nothing, so it need not be called
// collectively; maxVec is ignored — Proc.AllReduce takes a vector of any
// length — and stays for the callers that pass it.
func New(p pgas.Proc, maxVec int) *Comm { return &Comm{p: p} }

// Op is a reduction operator on int64 vectors: it folds in into acc. It
// must be commutative and associative.
type Op func(acc, in []int64)

// Predefined reduction operators.
var (
	// Sum adds element-wise.
	Sum Op = pgas.Sum
	// Max keeps the element-wise maximum.
	Max Op = func(acc, in []int64) {
		for i := range acc {
			acc[i] = max(acc[i], in[i])
		}
	}
	// Min keeps the element-wise minimum.
	Min Op = func(acc, in []int64) {
		for i := range acc {
			acc[i] = min(acc[i], in[i])
		}
	}
	// BOr ors element-wise (flag aggregation).
	BOr Op = func(acc, in []int64) {
		for i := range acc {
			acc[i] |= in[i]
		}
	}
)

// Reduce combines every process's vec with op. It is an all-reduce: the
// result lands in vec on every process, root included. Collective.
func (c *Comm) Reduce(vec []int64, op Op, root int) { c.p.AllReduce(vec, op) }

// Bcast distributes root's vec to every process: the other processes
// contribute zeros to a Sum. Collective.
func (c *Comm) Bcast(vec []int64, root int) {
	if c.p.Rank() != root {
		clear(vec)
	}
	c.p.AllReduce(vec, Sum)
}

// AllReduce combines every process's vec with op and leaves the full
// result in vec on every process. Collective.
func (c *Comm) AllReduce(vec []int64, op Op) { c.p.AllReduce(vec, op) }

// AllGather concatenates each process's element into out (length NProcs)
// on every process: a Sum of vectors that are zero but for each process's
// own element. Collective.
func (c *Comm) AllGather(mine int64, out []int64) {
	if len(out) != c.p.NProcs() {
		panic(fmt.Sprintf("coll: AllGather out length %d != %d processes", len(out), c.p.NProcs()))
	}
	clear(out)
	out[c.p.Rank()] = mine
	c.AllReduce(out, Sum)
}

// ExScan computes the exclusive prefix sum of mine across ranks: the
// result on rank r is the sum of mine over ranks < r. Collective.
func (c *Comm) ExScan(mine int64) int64 {
	all := make([]int64, c.p.NProcs())
	c.AllGather(mine, all)
	var acc int64
	for r := 0; r < c.p.Rank(); r++ {
		acc += all[r]
	}
	return acc
}

// SumF64 is a convenience all-reduce for float64 scalars (bit-transported
// through the int64 machinery).
func (c *Comm) SumF64(v float64) float64 {
	// Sum floats by gathering and adding in rank order so every process
	// computes the identical (deterministically ordered) result.
	all := make([]int64, c.p.NProcs())
	c.AllGather(int64FromF64(v), all)
	acc := 0.0
	for _, b := range all {
		acc += f64FromInt64(b)
	}
	return acc
}

// MaxF64 all-reduces the maximum of a float64 scalar.
func (c *Comm) MaxF64(v float64) float64 {
	all := make([]int64, c.p.NProcs())
	c.AllGather(int64FromF64(v), all)
	max := f64FromInt64(all[0])
	for _, b := range all[1:] {
		if f := f64FromInt64(b); f > max {
			max = f
		}
	}
	return max
}
