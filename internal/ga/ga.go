// Package ga implements the subset of the Global Arrays (GA) toolkit that
// the paper's applications and example use: dense two-dimensional arrays of
// float64, block-distributed over all processes, with one-sided block get,
// put, and atomic accumulate, plus NGA_Read_inc-style shared counters (the
// load-balancing mechanism of the paper's original SCF and TCE
// implementations).
//
// An Array is created collectively. Its element space is tiled into blocks
// of BlockRows x BlockCols elements (edge blocks may be smaller); block
// (bi, bj), numbered seq = bi*nbc+bj in row-major block order, is owned by
// process seq mod P and stored at offset (seq / P) * blockCap of the
// owner's segment — the block-cyclic layout GA programs commonly use for
// contraction workloads. Any block is therefore reachable with a single
// one-sided transfer, located by the distribution function rather than a
// directory lookup, as GA's data server does; and because a process's
// blocks are one contiguous span of its segment, any run of consecutive
// block numbers is at most P contiguous spans. Every operation that moves
// more than one block (Gather, ScatterFrom, GetPatch, Copy, Dgemm, a
// View's Fetch) rides that: one non-blocking transfer per span and one
// Flush (window), instead of a blocking round trip per block.
//
// A View is a read-only cache of an Array's blocks for the phases of a
// program in which the array is not written: blocks are fetched once, many
// per window, and then read in place. The SCF density and the TCE operands
// are read through one.
package ga

import (
	"fmt"

	"scioto/internal/pgas"
)

// Array is a distributed dense 2-D array of float64.
type Array struct {
	p pgas.Proc

	Rows, Cols           int
	BlockRows, BlockCols int

	nbr, nbc int // number of block rows / cols
	seg      pgas.Seg
	blockCap int // elements reserved per block (nominal block size)

	// Scratch, reused by every call: an Array belongs to one rank's
	// goroutine. blk carries the single-block and element operations, mark
	// and stage the windowed ones (see window).
	blk   []byte
	mark  []bool // by seq: the block takes part in the next window
	stage []byte // every block of the array, block seq at slot(seq); allocated by the first window
}

// New collectively creates a distributed array. All processes must call it
// with identical arguments. Elements are zero-initialized.
func New(p pgas.Proc, rows, cols, blockRows, blockCols int) *Array {
	if rows <= 0 || cols <= 0 || blockRows <= 0 || blockCols <= 0 {
		panic(fmt.Sprintf("ga: invalid shape %dx%d blocks %dx%d", rows, cols, blockRows, blockCols))
	}
	a := &Array{
		p:         p,
		Rows:      rows,
		Cols:      cols,
		BlockRows: blockRows,
		BlockCols: blockCols,
		nbr:       (rows + blockRows - 1) / blockRows,
		nbc:       (cols + blockCols - 1) / blockCols,
		blockCap:  blockRows * blockCols,
	}
	// Every process allocates the maximum local block count so the
	// allocation is symmetric.
	maxLocal := 0
	for r := 0; r < p.NProcs(); r++ {
		if n := a.blocksOwnedBy(r); n > maxLocal {
			maxLocal = n
		}
	}
	a.seg = p.AllocData(maxLocal * a.blockCap * pgas.F64Bytes)
	a.blk = make([]byte, a.blockCap*pgas.F64Bytes)
	a.mark = make([]bool, a.nbr*a.nbc)
	return a
}

// NumBlockRows returns the number of block rows.
func (a *Array) NumBlockRows() int { return a.nbr }

// NumBlockCols returns the number of block columns.
func (a *Array) NumBlockCols() int { return a.nbc }

// blockSeq is the row-major linear index of block (bi, bj).
func (a *Array) blockSeq(bi, bj int) int { return bi*a.nbc + bj }

// blocksOwnedBy counts the blocks the cyclic distribution assigns to rank.
func (a *Array) blocksOwnedBy(rank int) int {
	total := a.nbr * a.nbc
	n := total / a.p.NProcs()
	if rank < total%a.p.NProcs() {
		n++
	}
	return n
}

// Owner returns the rank owning block (bi, bj).
func (a *Array) Owner(bi, bj int) int {
	a.checkBlock(bi, bj)
	return a.blockSeq(bi, bj) % a.p.NProcs()
}

// blockOffset returns the byte offset of block (bi, bj) within its owner's
// segment.
func (a *Array) blockOffset(bi, bj int) int {
	return (a.blockSeq(bi, bj) / a.p.NProcs()) * a.blockCap * pgas.F64Bytes
}

// BlockDims returns the actual dimensions of block (bi, bj); edge blocks
// may be smaller than the nominal block size.
func (a *Array) BlockDims(bi, bj int) (r, c int) {
	a.checkBlock(bi, bj)
	r, c = a.BlockRows, a.BlockCols
	if (bi+1)*a.BlockRows > a.Rows {
		r = a.Rows - bi*a.BlockRows
	}
	if (bj+1)*a.BlockCols > a.Cols {
		c = a.Cols - bj*a.BlockCols
	}
	return r, c
}

func (a *Array) checkBlock(bi, bj int) {
	if bi < 0 || bi >= a.nbr || bj < 0 || bj >= a.nbc {
		panic(fmt.Sprintf("ga: block (%d,%d) out of range %dx%d", bi, bj, a.nbr, a.nbc))
	}
}

// blockLen returns the element count of block (bi, bj).
func (a *Array) blockLen(bi, bj int) int {
	r, c := a.BlockDims(bi, bj)
	return r * c
}

// GetBlock fetches block (bi, bj) into dst (row-major, BlockDims elements)
// with one one-sided transfer. It returns the block's dimensions.
func (a *Array) GetBlock(bi, bj int, dst []float64) (r, c int) {
	n := a.blockLen(bi, bj)
	if len(dst) < n {
		panic(fmt.Sprintf("ga: GetBlock dst %d < block %d", len(dst), n))
	}
	buf := a.blk[:n*pgas.F64Bytes]
	a.p.Get(buf, a.Owner(bi, bj), a.seg, a.blockOffset(bi, bj))
	pgas.GetF64Slice(dst[:n], buf)
	return a.BlockDims(bi, bj)
}

// PutBlock stores src (row-major) as block (bi, bj) with one one-sided
// transfer.
func (a *Array) PutBlock(bi, bj int, src []float64) {
	n := a.blockLen(bi, bj)
	if len(src) < n {
		panic(fmt.Sprintf("ga: PutBlock src %d < block %d", len(src), n))
	}
	buf := a.blk[:n*pgas.F64Bytes]
	pgas.PutF64Slice(buf, src[:n])
	a.p.Put(a.Owner(bi, bj), a.seg, a.blockOffset(bi, bj), buf)
}

// AccBlock atomically adds src element-wise into block (bi, bj)
// (GA_Acc with alpha = 1).
func (a *Array) AccBlock(bi, bj int, src []float64) {
	n := a.blockLen(bi, bj)
	if len(src) < n {
		panic(fmt.Sprintf("ga: AccBlock src %d < block %d", len(src), n))
	}
	a.p.AccF64(a.Owner(bi, bj), a.seg, a.blockOffset(bi, bj), src[:n])
}

// FillLocal sets every element of the blocks owned by the calling process
// to v. Collective when called by all processes (then equivalent to
// GA_Fill); pair with a barrier before dependent reads.
func (a *Array) FillLocal(v float64) {
	me := a.p.Rank()
	local := a.p.Local(a.seg)
	for bi := 0; bi < a.nbr; bi++ {
		for bj := 0; bj < a.nbc; bj++ {
			if a.Owner(bi, bj) != me {
				continue
			}
			off := a.blockOffset(bi, bj)
			for k := 0; k < a.blockLen(bi, bj); k++ {
				pgas.PutF64(local[off+k*pgas.F64Bytes:], v)
			}
		}
	}
}

// ZeroLocal zeroes the calling process's blocks.
func (a *Array) ZeroLocal() { a.FillLocal(0) }

// Get reads element (i, j) with a one-sided transfer (convenience; block
// transfers are the intended access granularity).
func (a *Array) Get(i, j int) float64 {
	bi, bj := i/a.BlockRows, j/a.BlockCols
	_, c := a.BlockDims(bi, bj)
	li, lj := i%a.BlockRows, j%a.BlockCols
	buf := a.blk[:pgas.F64Bytes]
	a.p.Get(buf, a.Owner(bi, bj), a.seg, a.blockOffset(bi, bj)+(li*c+lj)*pgas.F64Bytes)
	return pgas.GetF64(buf)
}

// Set writes element (i, j) with a one-sided transfer.
func (a *Array) Set(i, j int, v float64) {
	bi, bj := i/a.BlockRows, j/a.BlockCols
	_, c := a.BlockDims(bi, bj)
	li, lj := i%a.BlockRows, j%a.BlockCols
	buf := a.blk[:pgas.F64Bytes]
	pgas.PutF64(buf, v)
	a.p.Put(a.Owner(bi, bj), a.seg, a.blockOffset(bi, bj)+(li*c+lj)*pgas.F64Bytes, buf)
}

// Gather assembles the full array on the calling process (verification and
// small-matrix math, e.g. the SCF eigensolve) in one window. Row-major
// rows x cols.
func (a *Array) Gather() []float64 {
	out := make([]float64, a.Rows*a.Cols)
	a.GetPatch(0, a.Rows, 0, a.Cols, out)
	return out
}

// ScatterFrom distributes a full row-major matrix from the calling process
// into the array in one window (inverse of Gather; typically rank 0 after
// a collective decision, followed by a barrier).
func (a *Array) ScatterFrom(m []float64) {
	if len(m) != a.Rows*a.Cols {
		panic(fmt.Sprintf("ga: ScatterFrom size %d, want %d", len(m), a.Rows*a.Cols))
	}
	for bi := 0; bi < a.nbr; bi++ {
		for bj := 0; bj < a.nbc; bj++ {
			blk := a.want(a.blockSeq(bi, bj))
			r, c := a.BlockDims(bi, bj)
			for x := 0; x < r; x++ {
				at := (bi*a.BlockRows+x)*a.Cols + bj*a.BlockCols
				pgas.PutF64Slice(blk[x*c*pgas.F64Bytes:], m[at:at+c])
			}
		}
	}
	window(true, a)
}
