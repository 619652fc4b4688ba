package tcp

import (
	"fmt"
	"testing"

	"scioto/internal/pgas"
)

// TestStealPipelineOutstanding pins down the property the non-blocking
// layer exists for: a steal-shaped batch of Nb requests issued before one
// Flush travels as multiple simultaneously outstanding requests on ONE
// mesh connection, instead of serial round trips. The assertion runs
// inside the SPMD body (rank 0's own process) against the transport's
// in-flight high-water mark, so a regression to issue-and-wait semantics
// fails the test even if results stay correct.
//
// The bound is deterministic: issue registers a request as pending before
// its frame is flushed, so after four unflushed Nb issues the rank-1
// connection has four pending requests at once.
func TestStealPipelineOutstanding(t *testing.T) {
	w := NewWorld(Config{NProcs: 2, Seed: 1})
	if err := w.Run(func(p pgas.Proc) {
		seg := p.AllocData(1024)
		words := p.AllocWords(2)
		p.Barrier()
		if p.Rank() == 0 {
			buf := make([]byte, 256)
			var bottom, old int64
			p.NbLoad64(1, words, 0, &bottom)
			p.NbGet(buf, 1, seg, 0)
			p.NbFetchAdd64(1, words, 1, 1, &old)
			p.NbStore64(1, words, 0, 7)
			p.Flush()
			if got := p.(*proc).peers[1].maxOutstanding(); got < 2 {
				panic(fmt.Sprintf(
					"steal-shaped Nb batch peaked at %d outstanding request(s) on the rank-1 connection; pipelining is broken",
					got))
			}
		}
		p.Barrier()
	}); err != nil {
		t.Fatal(err)
	}
}

// TestFlushWindowCoalesces pins down the syscall-lean flush: a window of
// Nb request frames must leave in far fewer write calls than frames — the
// whole window rides one net.Buffers vector write — instead of one write
// per frame. The assertion runs inside rank 0's process against the
// package-wide wire accounting, bracketing exactly the batch + Flush.
func TestFlushWindowCoalesces(t *testing.T) {
	w := NewWorld(Config{NProcs: 2, Seed: 2})
	if err := w.Run(func(p pgas.Proc) {
		seg := p.AllocData(1024)
		words := p.AllocWords(8)
		p.Barrier()
		if p.Rank() == 0 {
			buf := make([]byte, 64)
			var outs [8]int64
			f0, w0 := WireStats()
			for i := 0; i < 8; i++ {
				p.NbLoad64(1, words, i, &outs[i])
			}
			p.NbGet(buf, 1, seg, 0)
			p.NbStore64(1, words, 0, 7)
			p.Flush()
			frames, writes := WireStats()
			frames, writes = frames-f0, writes-w0
			if frames < 10 {
				panic(fmt.Sprintf("batch of 10 Nb issues accounted only %d frames", frames))
			}
			if writes*4 > frames {
				panic(fmt.Sprintf(
					"flush window of %d frames took %d write calls; the writev coalescing is broken",
					frames, writes))
			}
		}
		p.Barrier()
	}); err != nil {
		t.Fatal(err)
	}
}

// TestAutoFlushBoundsWindow pins the other side of the coalescing
// bargain: a long run of Nb issues with no explicit Flush must not
// accumulate pooled frames without bound. Once the queued window passes
// autoFlushBytes, issue itself flushes, so frames reach the wire (and
// replies start streaming back) before any blocking op.
func TestAutoFlushBoundsWindow(t *testing.T) {
	w := NewWorld(Config{NProcs: 2, Seed: 3})
	if err := w.Run(func(p pgas.Proc) {
		seg := p.AllocData(16 << 10)
		p.Barrier()
		if p.Rank() == 0 {
			src := make([]byte, 16<<10)
			_, w0 := WireStats()
			for i := 0; i < 8; i++ { // 128 KiB queued, two windows' worth
				p.NbPut(1, seg, 0, src)
			}
			_, w1 := WireStats()
			if w1 == w0 {
				panic(fmt.Sprintf(
					"8 Nb issues (%d KiB) queued without a single auto-flush; the window is unbounded",
					8*16))
			}
			p.Flush()
		}
		p.Barrier()
	}); err != nil {
		t.Fatal(err)
	}
}
