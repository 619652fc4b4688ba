package ga

import (
	"fmt"

	"scioto/internal/pgas"
)

// Arbitrary rectangular patch access in the style of NGA_Get / NGA_Put /
// NGA_Acc: the requested region [ilo, ihi) x [jlo, jhi) may span any set of
// blocks and any set of owners. GetPatch (and Gather and Copy, which are
// built on it) fetches the blocks the patch intersects in one window and
// unpacks the covered rows. PutPatch and AccPatch go block by block, each a
// single blocking one-sided operation: an accumulate has no non-blocking
// form, a partial-block put must read the block before it writes it, and
// nothing on a measured path calls either.

// checkPatch validates patch bounds.
func (a *Array) checkPatch(ilo, ihi, jlo, jhi int) {
	if ilo < 0 || jlo < 0 || ihi > a.Rows || jhi > a.Cols || ilo >= ihi || jlo >= jhi {
		panic(fmt.Sprintf("ga: invalid patch [%d:%d)x[%d:%d) of %dx%d array", ilo, ihi, jlo, jhi, a.Rows, a.Cols))
	}
}

// patchBlocks invokes fn for every block intersecting the patch, with the
// intersection both in array coordinates and block-local coordinates.
func (a *Array) patchBlocks(ilo, ihi, jlo, jhi int, fn func(bi, bj, rLo, rHi, cLo, cHi int)) {
	for bi := ilo / a.BlockRows; bi*a.BlockRows < ihi; bi++ {
		for bj := jlo / a.BlockCols; bj*a.BlockCols < jhi; bj++ {
			rLo := max(ilo, bi*a.BlockRows)
			rHi := min(ihi, (bi+1)*a.BlockRows)
			br, bc := a.BlockDims(bi, bj)
			if rHi > bi*a.BlockRows+br {
				rHi = bi*a.BlockRows + br
			}
			cLo := max(jlo, bj*a.BlockCols)
			cHi := min(jhi, (bj+1)*a.BlockCols)
			if cHi > bj*a.BlockCols+bc {
				cHi = bj*a.BlockCols + bc
			}
			if rLo < rHi && cLo < cHi {
				fn(bi, bj, rLo, rHi, cLo, cHi)
			}
		}
	}
}

// GetPatch fetches the rectangular patch [ilo, ihi) x [jlo, jhi) into dst
// (row-major, (ihi-ilo) x (jhi-jlo)) in one window.
func (a *Array) GetPatch(ilo, ihi, jlo, jhi int, dst []float64) {
	a.checkPatch(ilo, ihi, jlo, jhi)
	if len(dst) < (ihi-ilo)*(jhi-jlo) {
		panic("ga: GetPatch dst too short")
	}
	a.wantPatch(ilo, ihi, jlo, jhi)
	window(false, a)
	a.unpackPatch(ilo, ihi, jlo, jhi, dst)
}

// wantPatch marks the blocks the patch intersects for the next window.
func (a *Array) wantPatch(ilo, ihi, jlo, jhi int) {
	a.patchBlocks(ilo, ihi, jlo, jhi, func(bi, bj, _, _, _, _ int) {
		a.want(a.blockSeq(bi, bj))
	})
}

// unpackPatch decodes the patch into dst from the staged copies of the
// blocks it intersects, which a get window has filled.
func (a *Array) unpackPatch(ilo, ihi, jlo, jhi int, dst []float64) {
	cols := jhi - jlo
	a.patchBlocks(ilo, ihi, jlo, jhi, func(bi, bj, rLo, rHi, cLo, cHi int) {
		_, bc := a.BlockDims(bi, bj)
		blk := a.staged(a.blockSeq(bi, bj))
		for r := rLo; r < rHi; r++ {
			at := (r-bi*a.BlockRows)*bc + cLo - bj*a.BlockCols
			pgas.GetF64Slice(dst[(r-ilo)*cols+cLo-jlo:][:cHi-cLo], blk[at*pgas.F64Bytes:])
		}
	})
}

// PutPatch stores src (row-major, (ihi-ilo) x (jhi-jlo)) into the patch.
// Partial-block writes read-modify-write the block; concurrent PutPatch
// calls touching the same block require caller synchronization, exactly as
// with NGA_Put.
func (a *Array) PutPatch(ilo, ihi, jlo, jhi int, src []float64) {
	a.checkPatch(ilo, ihi, jlo, jhi)
	cols := jhi - jlo
	if len(src) < (ihi-ilo)*cols {
		panic("ga: PutPatch src too short")
	}
	blk := make([]float64, a.blockCap)
	a.patchBlocks(ilo, ihi, jlo, jhi, func(bi, bj, rLo, rHi, cLo, cHi int) {
		br, bc := a.BlockDims(bi, bj)
		full := rLo == bi*a.BlockRows && rHi == bi*a.BlockRows+br &&
			cLo == bj*a.BlockCols && cHi == bj*a.BlockCols+bc
		if !full {
			a.GetBlock(bi, bj, blk)
		}
		for r := rLo; r < rHi; r++ {
			lr := r - bi*a.BlockRows
			copy(blk[lr*bc+(cLo-bj*a.BlockCols):lr*bc+(cHi-bj*a.BlockCols)],
				src[(r-ilo)*cols+(cLo-jlo):(r-ilo)*cols+(cHi-jlo)])
		}
		a.PutBlock(bi, bj, blk)
	})
}

// AccPatch atomically accumulates src into the patch, block by block (each
// block contribution is one atomic accumulate; the patch as a whole is not
// atomic, matching NGA_Acc semantics).
func (a *Array) AccPatch(ilo, ihi, jlo, jhi int, src []float64) {
	a.checkPatch(ilo, ihi, jlo, jhi)
	cols := jhi - jlo
	if len(src) < (ihi-ilo)*cols {
		panic("ga: AccPatch src too short")
	}
	blk := make([]float64, a.blockCap)
	a.patchBlocks(ilo, ihi, jlo, jhi, func(bi, bj, rLo, rHi, cLo, cHi int) {
		_, bc := a.BlockDims(bi, bj)
		n := a.blockLen(bi, bj)
		for i := 0; i < n; i++ {
			blk[i] = 0
		}
		for r := rLo; r < rHi; r++ {
			lr := r - bi*a.BlockRows
			copy(blk[lr*bc+(cLo-bj*a.BlockCols):lr*bc+(cHi-bj*a.BlockCols)],
				src[(r-ilo)*cols+(cLo-jlo):(r-ilo)*cols+(cHi-jlo)])
		}
		a.AccBlock(bi, bj, blk)
	})
}

// Copy copies src into dst (same shape required; block layouts may
// differ). Collective when all processes call it; each process fetches, in
// one window, the blocks of src that cover the blocks it owns in dst.
func Copy(dst, src *Array) {
	if dst.Rows != src.Rows || dst.Cols != src.Cols {
		panic(fmt.Sprintf("ga: Copy shape mismatch %dx%d vs %dx%d", dst.Rows, dst.Cols, src.Rows, src.Cols))
	}
	dst.ownedBlocks(func(bi, bj, iLo, iHi, jLo, jHi int) {
		src.wantPatch(iLo, iHi, jLo, jHi)
	})
	window(false, src)
	buf := make([]float64, dst.blockCap)
	dst.ownedBlocks(func(bi, bj, iLo, iHi, jLo, jHi int) {
		src.unpackPatch(iLo, iHi, jLo, jHi, buf)
		dst.PutBlock(bi, bj, buf)
	})
}

// ownedBlocks invokes fn for every block the calling process owns, with the
// block's element range.
func (a *Array) ownedBlocks(fn func(bi, bj, iLo, iHi, jLo, jHi int)) {
	me := a.p.Rank()
	for bi := 0; bi < a.nbr; bi++ {
		for bj := 0; bj < a.nbc; bj++ {
			if a.Owner(bi, bj) != me {
				continue
			}
			r, c := a.BlockDims(bi, bj)
			fn(bi, bj, bi*a.BlockRows, bi*a.BlockRows+r, bj*a.BlockCols, bj*a.BlockCols+c)
		}
	}
}
