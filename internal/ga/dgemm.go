package ga

import (
	"fmt"

	"scioto/internal/linalg"
)

// Dgemm computes c = a*b collectively with the owner-computes rule: every
// process produces the output blocks it owns, reading the operand blocks
// through Views of a and b (the GA_Dgemm usage the paper's matmul example
// builds its task-parallel version on) — one window per output block for
// the row of a and the column of b it has not fetched yet, so an operand
// block reaches a process once. Block shapes must tile compatibly: a is
// M x K, b is K x N, c is M x N, with a.BlockCols == b.BlockRows,
// c.BlockRows == a.BlockRows and c.BlockCols == b.BlockCols. The operands
// must not be written during the call; callers must barrier before reading
// c.
func Dgemm(c, a, b *Array) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("ga: Dgemm shapes %dx%d * %dx%d -> %dx%d", a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
	if a.BlockCols != b.BlockRows || c.BlockRows != a.BlockRows || c.BlockCols != b.BlockCols {
		panic("ga: Dgemm block shapes incompatible")
	}
	va, vb := NewView(a), NewView(b)
	out := make([]float64, c.blockCap)
	c.ownedBlocks(func(bi, bj, _, _, _, _ int) {
		for bk := 0; bk < a.nbc; bk++ {
			va.Want(bi, bk)
			vb.Want(bk, bj)
		}
		Fetch(va, vb)
		cr, cc := c.BlockDims(bi, bj)
		clear(out[:cr*cc])
		for bk := 0; bk < a.nbc; bk++ {
			ar, ac := a.BlockDims(bi, bk)
			br, bc := b.BlockDims(bk, bj)
			if ac != br || ar != cr || bc != cc {
				panic("ga: Dgemm inner block mismatch")
			}
			linalg.GemmBlock(out, va.Block(bi, bk), vb.Block(bk, bj), ar, ac, bc)
		}
		c.PutBlock(bi, bj, out)
	})
}
