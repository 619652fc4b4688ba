package pgastest

import (
	"bytes"
	"fmt"
	"testing"

	"scioto/internal/pgas"
)

// Conformance cases for the non-blocking operation layer (NbGet, NbPut,
// NbLoad64, NbStore64, NbFetchAdd64, NbCAS64, Wait, Flush). They pin down
// the contract the runtime's pipelined steal/insert paths depend on:
// completion at Wait/Flush, per-origin-target issue ordering (including
// against blocking operations), flush-before-unlock visibility, and
// handle/buffer reuse after completion. Like the rest of the suite, all
// validation happens inside the SPMD body so the cases drive the tcp
// transport unmodified under Options{MultiProcess}.

// testNbCompletionOrdering: Wait makes results readable, and operations to
// one target apply in issue order — a NbPut followed by a flag store
// (blocking, same target) is observed in that order by the owner.
func testNbCompletionOrdering(t *testing.T, f Factory) {
	const n = 2
	const size = 512
	w := f(n)
	run(t, w, func(p pgas.Proc) {
		data := p.AllocData(size)
		words := p.AllocWords(2)
		if p.Rank() == 0 {
			pat := make([]byte, size)
			for i := range pat {
				pat[i] = byte((i*7 + 13) % 251)
			}
			h := p.NbPut(1, data, 0, pat)
			// Blocking op to the same target must not overtake the
			// pending put (per-pair FIFO), and Wait pins the completion.
			p.Wait(h)
			p.Store64(1, words, 0, 1)

			// NbLoad64/NbStore64/NbFetchAdd64 to one target in one batch:
			// issue order makes the fetch-add observe the store.
			var old, cur int64
			p.NbStore64(1, words, 1, 40)
			p.NbFetchAdd64(1, words, 1, 2, &old)
			p.Flush()
			if old != 40 {
				panic(fmt.Sprintf("NbFetchAdd64 old = %d, want 40 (issue order violated)", old))
			}
			h = p.NbLoad64(1, words, 1, &cur)
			p.Wait(h)
			if cur != 42 {
				panic(fmt.Sprintf("NbLoad64 = %d, want 42", cur))
			}

			// NbGet: dst is defined only after Wait.
			got := make([]byte, size)
			h = p.NbGet(got, 1, data, 0)
			p.Wait(h)
			if !bytes.Equal(got, pat) {
				panic("NbGet after Wait returned wrong bytes")
			}
		} else {
			// Spin on the flag; once it flips, the put issued before it
			// must be fully visible.
			for p.Load64(1, words, 0) == 0 {
			}
			local := p.Local(data)
			for i := 0; i < size; i++ {
				if local[i] != byte((i*7+13)%251) {
					panic(fmt.Sprintf("flag visible before NbPut byte %d landed", i))
				}
			}
		}
		p.Barrier()
	})
}

// testNbReuseAfterWait: once Wait returns, input and output buffers (and
// the transport's internal operation records) are reusable; handles from
// earlier generations stay completed.
func testNbReuseAfterWait(t *testing.T, f Factory) {
	const n = 2
	const size = 256
	const rounds = 50
	w := f(n)
	run(t, w, func(p pgas.Proc) {
		data := p.AllocData(size)
		src := make([]byte, size)
		got := make([]byte, size)
		other := (p.Rank() + 1) % n
		base := p.Rank() * rounds
		var first pgas.Nb
		for r := 0; r < rounds; r++ {
			for i := range src {
				src[i] = byte((base + r + i) % 251)
			}
			h := p.NbPut(other, data, 0, src)
			p.Wait(h)
			if r == 0 {
				first = h
			} else {
				p.Wait(first) // stale handle: must return immediately
			}
			g := p.NbGet(got, other, data, 0)
			p.Wait(g)
			if !bytes.Equal(got, src) {
				panic(fmt.Sprintf("rank %d round %d: reused buffers returned wrong bytes", p.Rank(), r))
			}
		}
		p.Barrier()
	})
}

// testNbPipelinedBatch: a batch of non-blocking operations to several
// targets and disjoint offsets, completed by one Flush, lands exactly like
// the equivalent blocking sequence. This is the shape of the runtime's
// pipelined steal (two Gets + fetch-add + store per victim).
func testNbPipelinedBatch(t *testing.T, f Factory) {
	const n = 4
	const cell = 64
	w := f(n)
	run(t, w, func(p pgas.Proc) {
		data := p.AllocData(cell * n)
		words := p.AllocWords(n)
		me := p.Rank()
		src := make([]byte, cell)
		olds := make([]int64, n)
		for i := range src {
			src[i] = byte((me*37 + i) % 251)
		}
		// One batch: to every rank, a put into our cell and a fetch-add
		// into our counter slot.
		for j := 0; j < n; j++ {
			p.NbPut(j, data, me*cell, src)
			p.NbFetchAdd64(j, words, me, int64(me)+1, &olds[j])
		}
		p.Flush()
		for j := 0; j < n; j++ {
			if olds[j] != 0 {
				panic(fmt.Sprintf("rank %d: fetch-add old[%d] = %d, want 0", me, j, olds[j]))
			}
		}
		p.Barrier()
		// Every rank validates everything it hosts.
		local := p.Local(data)
		for j := 0; j < n; j++ {
			for i := 0; i < cell; i++ {
				if local[j*cell+i] != byte((j*37+i)%251) {
					panic(fmt.Sprintf("rank %d: cell %d byte %d corrupt after batch", me, j, i))
				}
			}
			if got := p.Load64(me, words, j); got != int64(j)+1 {
				panic(fmt.Sprintf("rank %d: counter %d = %d, want %d", me, j, got, j+1))
			}
		}
		p.Barrier()
	})
}

// testNbOutNotReused: a completed operation's result pointer belongs to the
// application again — no later operation, of any kind, may write through
// it. This is the steal path's shape: non-blocking metadata reads, then a
// bulk Get from the same victim.
func testNbOutNotReused(t *testing.T, f Factory) {
	const size = 16
	run(t, f(2), func(p pgas.Proc) {
		data := p.AllocData(size)
		words := p.AllocWords(1)
		other := 1 - p.Rank()
		local := p.Local(data)
		for i := range local {
			local[i] = 0xAB
		}
		p.RelaxedStore64(words, 0, 42)
		p.Barrier()

		var x, old int64
		p.NbLoad64(other, words, 0, &x)
		p.NbFetchAdd64(other, words, 0, 0, &old)
		p.Flush()
		buf := make([]byte, size)
		p.Get(buf, other, data, 0)
		h := p.NbGet(buf, other, data, 0)
		p.Wait(h)
		p.Load64(other, words, 0)
		if x != 42 || old != 42 {
			panic(fmt.Sprintf("NbLoad64, NbFetchAdd64 results = %#x, %#x after later operations, want 42, 42", x, old))
		}
		p.Barrier()
	})
}

// testNbCASInOrder: a fetch-add and a compare-and-swap to one target's
// words in one batch — the split queue's marked claim — apply in issue
// order, so a CAS expecting the added value swaps and one expecting the
// old value loses and leaves the word alone; the swapped flag is defined
// once Flush or Wait returns, with every op on one word and across two.
func testNbCASInOrder(t *testing.T, f Factory) {
	run(t, f(2), func(p pgas.Proc) {
		words := p.AllocWords(2)
		p.Barrier()
		check := func(what string, swapped, want int64, word int, wantWord int64) {
			if swapped != want {
				panic(fmt.Sprintf("%s: swapped = %d, want %d", what, swapped, want))
			}
			if got := p.Load64(1, words, word); got != wantWord {
				panic(fmt.Sprintf("%s: word %d = %d, want %d", what, word, got, wantWord))
			}
		}
		if p.Rank() == 0 {
			var old, won, lost int64 = -1, -1, -1
			// The CAS sees the add issued before it.
			p.NbFetchAdd64(1, words, 0, 5, &old)
			p.NbCAS64(1, words, 0, 5, 9, &won)
			p.Flush()
			if old != 0 {
				panic(fmt.Sprintf("NbFetchAdd64 old = %d, want 0", old))
			}
			check("CAS after the add", won, 1, 0, 9)
			// A CAS that loses changes nothing, completed by Wait.
			p.NbFetchAdd64(1, words, 0, 1, &old)
			h := p.NbCAS64(1, words, 0, 9, 0, &lost)
			p.Wait(h)
			check("CAS expecting the old value", lost, 0, 0, 10)
			// A mark on one word, then a claim on another: the split
			// queue's wDirty then wShared.
			p.NbFetchAdd64(1, words, 1, 1, &old)
			p.NbCAS64(1, words, 0, 10, 11, &won)
			p.Flush()
			check("CAS behind a mark", won, 1, 0, 11)
			if got := p.Load64(1, words, 1); got != 1 {
				panic(fmt.Sprintf("mark word = %d, want 1", got))
			}
		}
		p.Barrier()
	})
}

// RunNbFaultInjection drives non-blocking operations on worlds produced by
// a factory that injects faults (pgas/faulty with a drop or crash
// schedule), asserting that a fault injected on a pending operation
// surfaces as a rank-attributed error from Run instead of being lost in
// the pipeline. The factory must inject with enough probability that
// ~1000 remote operations are certain to hit one.
func RunNbFaultInjection(t *testing.T, newWorld Factory) {
	t.Helper()
	const n = 2
	w := newWorld(n)
	err := w.Run(func(p pgas.Proc) {
		data := p.AllocData(256)
		words := p.AllocWords(1)
		buf := make([]byte, 64)
		other := (p.Rank() + 1) % n
		var old int64
		for i := 0; i < 250; i++ {
			p.NbPut(other, data, 0, buf)
			p.NbGet(buf, other, data, 0)
			p.NbFetchAdd64(other, words, 0, 1, &old)
			p.Flush()
		}
	})
	if err == nil {
		t.Fatal("fault-injecting world completed a 1000-op Nb workload without error")
	}
	if _, ok := pgas.AsFault(err); !ok {
		t.Fatalf("error is not a FaultError: %v", err)
	}
}
