package ga

import (
	"scioto/internal/pgas"
)

// Windowed transfers. Block seq lives on rank seq mod P at offset
// (seq / P) * blockCap of that rank's segment, so the blocks a rank owns are
// one contiguous span of its segment, in seq order. The staging buffer lays
// the whole array out the same way, owner after owner, which makes any set
// of blocks adjacent in an owner's segment adjacent in the staging buffer
// too: such a run moves with one transfer, and a whole array with P.

// slot is the position of block seq in the staging buffer, in blocks.
func (a *Array) slot(seq int) int {
	np, total := a.p.NProcs(), a.nbr*a.nbc
	r := seq % np
	return r*(total/np) + min(r, total%np) + seq/np
}

// staged returns the staging bytes of block seq.
func (a *Array) staged(seq int) []byte {
	bb := a.blockCap * pgas.F64Bytes
	return a.stage[a.slot(seq)*bb:][:bb]
}

// want marks block seq for the next window and returns its staging bytes,
// which a put window sends and a get window fills.
func (a *Array) want(seq int) []byte {
	if a.stage == nil {
		a.stage = make([]byte, len(a.mark)*a.blockCap*pgas.F64Bytes)
	}
	a.mark[seq] = true
	return a.staged(seq)
}

// window moves every marked block of the given arrays (which share a
// process) between its owner's segment and its staging bytes — to the
// owner when put is set, from it otherwise — and clears the marks. Blocks
// adjacent in an owner's segment travel as one non-blocking transfer, and
// one Flush completes them all, so a window costs one round trip however
// many blocks and owners it covers. Owners and blocks are visited in rank
// and offset order: on dsim the order of issue is virtual time.
func window(put bool, arrays ...*Array) {
	for _, a := range arrays {
		np := a.p.NProcs()
		bb := a.blockCap * pgas.F64Bytes
		first := 0 // slot of the owner's first block
		for r := 0; r < np; r++ {
			n := a.blocksOwnedBy(r)
			for k := 0; k < n; k++ {
				if !a.mark[k*np+r] {
					continue
				}
				lo := k
				for ; k < n && a.mark[k*np+r]; k++ {
					a.mark[k*np+r] = false
				}
				buf := a.stage[(first+lo)*bb : (first+k)*bb]
				if put {
					a.p.NbPut(r, a.seg, lo*bb, buf)
				} else {
					a.p.NbGet(buf, r, a.seg, lo*bb)
				}
			}
			first += n
		}
	}
	arrays[0].p.Flush()
}

// View is a read-only cache of an Array's blocks on the calling process.
// Its coherence contract is the application's own synchronisation: a View
// may be read from the barrier that follows the last write to the array
// until the barrier that precedes the next one, and whoever lets the array
// be written again calls Invalidate first. Within that interval every
// block crosses the network at most once, and a cached block is read in
// place. The cache holds the whole array (the working set of the SCF and
// TCE tasks is most of it) and never evicts.
type View struct {
	a      *Array
	data   []float64 // block seq at [seq*blockCap:]
	state  []uint8   // by seq: blockAbsent, blockWanted or blockCached
	wanted []int     // the blockWanted seqs, in Want order
}

const (
	blockAbsent = iota
	blockWanted
	blockCached
)

// NewView returns an empty cache over a.
func NewView(a *Array) *View {
	return &View{
		a:     a,
		data:  make([]float64, a.nbr*a.nbc*a.blockCap),
		state: make([]uint8, a.nbr*a.nbc),
	}
}

// Want asks for block (bi, bj) to be brought in by the next Fetch. Wanting
// a block that is cached, or wanted already, costs nothing.
func (v *View) Want(bi, bj int) {
	v.a.checkBlock(bi, bj)
	seq := v.a.blockSeq(bi, bj)
	if v.state[seq] == blockAbsent {
		v.state[seq] = blockWanted
		v.wanted = append(v.wanted, seq)
	}
}

// Fetch brings every wanted block of the given views into their caches in
// one window (see window); with nothing wanted it does not communicate.
func Fetch(views ...*View) {
	arrays := make([]*Array, 0, 4) // stays on the stack for up to four views
	for _, v := range views {
		for _, seq := range v.wanted {
			v.a.want(seq)
		}
		if len(v.wanted) > 0 {
			arrays = append(arrays, v.a)
		}
	}
	if len(arrays) == 0 {
		return
	}
	window(false, arrays...)
	for _, v := range views {
		for _, seq := range v.wanted {
			pgas.GetF64Slice(v.data[seq*v.a.blockCap:][:v.a.blockCap], v.a.staged(seq))
			v.state[seq] = blockCached
		}
		v.wanted = v.wanted[:0]
	}
}

// Block returns block (bi, bj), row-major with BlockDims elements, as a
// slice of the cache's own storage: the caller must not modify it, and it
// is valid until Invalidate. A block that is not cached is fetched first,
// on its own; Want and Fetch exist so that this is the exception.
func (v *View) Block(bi, bj int) []float64 {
	seq := v.a.blockSeq(bi, bj)
	blk := v.data[seq*v.a.blockCap:][:v.a.blockLen(bi, bj)]
	if v.state[seq] != blockCached {
		v.a.GetBlock(bi, bj, blk)
		v.state[seq] = blockCached
	}
	return blk
}

// Invalidate forgets every cached and wanted block. Call it before the
// barrier that lets the array be written again.
func (v *View) Invalidate() {
	clear(v.state)
	v.wanted = v.wanted[:0]
}
