// Fixtures for the nbcomplete analyzer: non-blocking PGAS operations whose
// handles can escape completion.
package nbcomplete

import "pgas"

// Reading a dst before Wait: the handle never completes on any path.
func badNeverWaited(p pgas.Proc, seg pgas.Seg, sink *byte) {
	dst := make([]byte, 64)
	p.NbGet(dst, 1, seg, 0) // want `NbGet issued here is never completed`
	*sink = dst[0]
}

// An early return escapes before the pending put completes.
func badReturnPending(p pgas.Proc, seg pgas.Seg, src []byte) {
	h := p.NbPut(1, seg, 0, src)
	if p.NProcs() > 1 {
		return // want `return with NbPut pending`
	}
	p.Wait(h)
}

// Unlock with an operation in flight publishes half-applied state.
func badUnlockPending(p pgas.Proc, seg pgas.Seg, id pgas.LockID) {
	p.Lock(0, id)
	p.NbStore64(0, seg, 0, 7)
	p.Unlock(0, id) // want `Unlock with NbStore64 pending`
}

// A discarded handle can only be completed by Flush; Wait on a different
// handle does not cover it.
func badWrongWait(p pgas.Proc, seg pgas.Seg, src []byte) {
	h := p.NbPut(1, seg, 0, src)
	p.NbPut(1, seg, 64, src) // want `NbPut issued here is never completed`
	p.Wait(h)
}

// Completing on one branch but not the other leaks on the merge.
func badBranchLeak(p pgas.Proc, seg pgas.Seg) {
	var v int64
	h := p.NbLoad64(1, seg, 0, &v) // want `NbLoad64 issued here is never completed`
	if p.Rank() == 0 {
		p.Wait(h)
		h = p.NbLoad64(1, seg, 1, &v)
	}
	_ = v
}

// A claim's compare-and-swap is pending until the flush: returning its
// outcome before then reads an undefined result.
func badCASPending(p pgas.Proc, seg pgas.Seg) bool {
	var swapped int64
	p.NbCAS64(1, seg, 0, 0, 1, &swapped)
	return swapped != 0 // want `return with NbCAS64 pending`
}

// The mark and the claim in one flushed batch.
func goodCASFlushed(p pgas.Proc, seg pgas.Seg) bool {
	var old, swapped int64
	p.NbFetchAdd64(1, seg, 1, 1, &old)
	p.NbCAS64(1, seg, 0, 0, 1, &swapped)
	p.Flush()
	return swapped != 0
}

// Wait pins the handle it is given.
func goodWait(p pgas.Proc, seg pgas.Seg) int64 {
	var v int64
	h := p.NbLoad64(1, seg, 0, &v)
	p.Wait(h)
	return v
}

// Flush completes everything pending, bound or discarded.
func goodFlushAll(p pgas.Proc, seg pgas.Seg, src []byte) {
	p.NbPut(1, seg, 0, src)
	p.NbPut(2, seg, 0, src)
	var old int64
	p.NbFetchAdd64(1, seg, 0, 1, &old)
	p.Flush()
	_ = old
}

// The runtime's locked-update discipline: Flush strictly before Unlock.
func goodFlushBeforeUnlock(p pgas.Proc, seg pgas.Seg, id pgas.LockID) {
	p.Lock(0, id)
	p.NbStore64(0, seg, 0, 7)
	p.Flush()
	p.Unlock(0, id)
}

// Batching across loop iterations with one Flush after the loop — the
// shape of steal() in internal/core/queue.go — is the intended idiom.
func goodLoopBatch(p pgas.Proc, seg pgas.Seg, bufs [][]byte) {
	for i, b := range bufs {
		p.NbGet(b, 1, seg, i*64)
	}
	p.Flush()
}

// A returned handle transfers the completion obligation to the caller.
func goodReturnHandle(p pgas.Proc, seg pgas.Seg, src []byte) pgas.Nb {
	h := p.NbPut(1, seg, 0, src)
	return h
}

// defer p.Flush() covers every return path.
func goodDeferFlush(p pgas.Proc, seg pgas.Seg, src []byte) {
	defer p.Flush()
	p.NbPut(1, seg, 0, src)
	if p.NProcs() > 2 {
		p.NbPut(2, seg, 0, src)
		return
	}
}

// Completion on both branches leaves nothing pending at the merge.
func goodBranchComplete(p pgas.Proc, seg pgas.Seg, src []byte) {
	h := p.NbPut(1, seg, 0, src)
	if p.Rank() == 0 {
		p.Wait(h)
	} else {
		p.Flush()
	}
}

// A wrapper transport (the shape of pgas/faulty) implements the
// non-blocking primitives by delegation: the method IS the issue, and the
// completion obligation lies with its caller, so no diagnostic fires.
type wrapper struct{ inner pgas.Proc }

func (w *wrapper) NbPut(proc int, seg pgas.Seg, off int, src []byte) pgas.Nb {
	return w.inner.NbPut(proc, seg, off, src)
}

func (w *wrapper) Wait(h pgas.Nb) { w.inner.Wait(h) }
func (w *wrapper) Flush()         { w.inner.Flush() }

// The exemption is by method name, not by receiver: a differently named
// helper on the same wrapper is an ordinary consumer and is still checked.
func (w *wrapper) leakyHelper(seg pgas.Seg, src []byte) {
	w.inner.NbPut(1, seg, 0, src) // want `NbPut issued here is never completed`
}
