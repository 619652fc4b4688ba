// Package pgastest provides a transport-agnostic conformance suite for pgas
// implementations. Every transport (shm, dsim, tcp) must pass every test in
// the suite, which pins down the semantics the Scioto runtime depends on:
// symmetric allocation, one-sided transfer correctness, atomicity of word
// operations and accumulates, lock mutual exclusion, barrier synchronization,
// the all-reduce, and message ordering.
//
// All validation happens inside the SPMD body, through the PGAS itself:
// results are gathered onto rank 0 and checked there, and a failed check
// panics so World.Run reports it. This discipline is what lets the same
// suite drive the tcp transport, whose bodies execute in separate OS
// processes where captured test-process variables are inaccessible copies.
package pgastest

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"scioto/internal/pgas"
)

// Factory creates a fresh world with n processes for a subtest.
type Factory func(n int) pgas.World

// Options adjusts the suite for a transport's execution model.
type Options struct {
	// MultiProcess marks transports (tcp) whose SPMD bodies run in
	// separate OS processes spawned by re-executing the test binary. Two
	// things change: checks that compare state across worlds through
	// captured variables validate through the PGAS instead, and tests that
	// create worlds concurrently are skipped, because multi-process
	// transports require a deterministic world-creation order to match
	// parent and child NewWorld calls.
	MultiProcess bool
	// RankProcess marks a run inside a spawned rank process of a
	// MultiProcess transport. There every world but the one the process
	// was spawned for is inert — its Run executes nothing and returns nil
	// — so a check that Run fails holds only in the launching process.
	RankProcess bool
	// Survivable, when set, creates worlds that outlive a rank's death
	// (pgas.Resilient with ok=true): the cases that kill a rank run on it.
	Survivable Factory
}

// RunConformance runs the full conformance suite against worlds produced by
// the factory.
func RunConformance(t *testing.T, newWorld Factory) {
	t.Helper()
	RunConformanceOptions(t, newWorld, Options{})
}

// RunConformanceOptions is RunConformance with transport options.
func RunConformanceOptions(t *testing.T, newWorld Factory, opts Options) {
	t.Helper()
	t.Run("PutGetRoundTrip", func(t *testing.T) { testPutGet(t, newWorld) })
	t.Run("SymmetricAlloc", func(t *testing.T) { testSymmetricAlloc(t, newWorld) })
	t.Run("FetchAddAtomicity", func(t *testing.T) { testFetchAdd(t, newWorld) })
	t.Run("CASExchange", func(t *testing.T) { testCAS(t, newWorld) })
	t.Run("AccF64Atomicity", func(t *testing.T) { testAccF64(t, newWorld) })
	t.Run("AccF64Contended", func(t *testing.T) { testAccContended(t, newWorld) })
	RunLocks(t, newWorld, opts)
	t.Run("BarrierSeparatesPhases", func(t *testing.T) { testBarrierPhases(t, newWorld) })
	t.Run("BarrierManyRounds", func(t *testing.T) { testBarrierRounds(t, newWorld) })
	t.Run("AllReduce", func(t *testing.T) { testAllReduce(t, newWorld) })
	if opts.Survivable != nil {
		t.Run("BarrierLiveMembership", func(t *testing.T) { testBarrierLiveMembership(t, opts.Survivable) })
		t.Run("AllReduceLiveMembership", func(t *testing.T) { testAllReduceLiveMembership(t, opts.Survivable) })
		t.Run("DeadHeapReadable", func(t *testing.T) { testDeadHeapReadable(t, opts.Survivable) })
	}
	t.Run("SendRecvPingPong", func(t *testing.T) { testPingPong(t, newWorld) })
	t.Run("SendRecvAnySource", func(t *testing.T) { testAnySource(t, newWorld) })
	t.Run("TryRecv", func(t *testing.T) { testTryRecv(t, newWorld) })
	t.Run("TryRecvDrainAnySource", func(t *testing.T) { testTryRecvDrain(t, newWorld) })
	t.Run("MessageOrderPerPair", func(t *testing.T) { testMessageOrder(t, newWorld) })
	t.Run("RelaxedOwnerWords", func(t *testing.T) { testRelaxedWords(t, newWorld) })
	RunLocalStable(t, newWorld)
	t.Run("SingleProc", func(t *testing.T) { testSingleProc(t, newWorld) })
	t.Run("EmptyBodyRelaunch", func(t *testing.T) { testEmptyBodyRelaunch(t, newWorld) })
	t.Run("PanicPropagates", func(t *testing.T) { testPanicPropagates(t, newWorld, opts) })
	t.Run("RandDeterministicPerRank", func(t *testing.T) { testRand(t, newWorld, opts) })
	t.Run("ClockPerRank", func(t *testing.T) { testClockPerRank(t, newWorld) })
	t.Run("NbCompletionOrdering", func(t *testing.T) { testNbCompletionOrdering(t, newWorld) })
	t.Run("NbReuseAfterWait", func(t *testing.T) { testNbReuseAfterWait(t, newWorld) })
	t.Run("NbPipelinedBatch", func(t *testing.T) { testNbPipelinedBatch(t, newWorld) })
	t.Run("NbOutNotReused", func(t *testing.T) { testNbOutNotReused(t, newWorld) })
	t.Run("NbCASInOrder", func(t *testing.T) { testNbCASInOrder(t, newWorld) })
	t.Run("ObsMergeAcrossRanks", func(t *testing.T) { testObsMerge(t, newWorld) })
	t.Run("OccupancyMergeAcrossRanks", func(t *testing.T) { testOccMerge(t, newWorld) })
	t.Run("DeferredCrossPhase", func(t *testing.T) { testDeferredCrossPhase(t, newWorld) })
}

func run(t *testing.T, w pgas.World, body func(p pgas.Proc)) {
	t.Helper()
	if err := w.Run(body); err != nil {
		t.Fatalf("world run failed: %v", err)
	}
}

// testPutGet: every rank writes a distinctive pattern into its right
// neighbor's segment; after a barrier, everyone validates its own memory and
// reads back its own contribution from the neighbor.
func testPutGet(t *testing.T, f Factory) {
	const n = 4
	const size = 1 << 10
	w := f(n)
	run(t, w, func(p pgas.Proc) {
		seg := p.AllocData(size)
		right := (p.Rank() + 1) % n
		pat := make([]byte, size)
		for i := range pat {
			pat[i] = byte((p.Rank()*31 + i) % 251)
		}
		p.Put(right, seg, 0, pat)
		p.Barrier()
		// Validate what the left neighbor wrote into us.
		left := (p.Rank() - 1 + n) % n
		want := make([]byte, size)
		for i := range want {
			want[i] = byte((left*31 + i) % 251)
		}
		if !bytes.Equal(p.Local(seg), want) {
			panic(fmt.Sprintf("rank %d: local segment does not match left neighbor's pattern", p.Rank()))
		}
		// Read back our own contribution from the neighbor.
		got := make([]byte, size)
		p.Get(got, right, seg, 0)
		if !bytes.Equal(got, pat) {
			panic(fmt.Sprintf("rank %d: Get from %d returned wrong bytes", p.Rank(), right))
		}
	})
}

// testSymmetricAlloc: interleaved data/word/lock allocations yield identical
// handles on every rank, and offsets address independent per-rank instances.
func testSymmetricAlloc(t *testing.T, f Factory) {
	const n = 3
	w := f(n)
	run(t, w, func(p pgas.Proc) {
		d0 := p.AllocData(64)
		w0 := p.AllocWords(8)
		d1 := p.AllocData(128)
		l0 := p.AllocLock() // a word segment of one cell: the next word handle
		w1 := p.AllocWords(4)
		if d0 != 0 || d1 != 1 || w0 != 0 || l0 != 1 || w1 != 2 {
			panic(fmt.Sprintf("rank %d: unexpected handles d0=%d d1=%d w0=%d w1=%d l0=%d",
				p.Rank(), d0, d1, w0, w1, l0))
		}
		p.Store64(p.Rank(), w0, 0, int64(100+p.Rank()))
		p.Barrier()
		for r := 0; r < n; r++ {
			if got := p.Load64(r, w0, 0); got != int64(100+r) {
				panic(fmt.Sprintf("rank %d: word seg instance %d holds %d", p.Rank(), r, got))
			}
		}
	})
}

// testFetchAdd: all ranks hammer a counter on rank 0; the total and the set
// of observed pre-values must both be exact. Each rank gathers its observed
// pre-values into a segment on rank 0, which validates exact coverage.
func testFetchAdd(t *testing.T, f Factory) {
	const n = 4
	const perRank = 100
	const wordBytes = 8
	w := f(n)
	run(t, w, func(p pgas.Proc) {
		ws := p.AllocWords(1)
		gather := p.AllocData(n * perRank * wordBytes)
		mine := make([]byte, perRank*wordBytes)
		for i := 0; i < perRank; i++ {
			pgas.PutI64(mine[i*wordBytes:], p.FetchAdd64(0, ws, 0, 1))
		}
		p.Put(0, gather, p.Rank()*perRank*wordBytes, mine)
		p.Barrier()
		if p.Rank() == 0 {
			if got := p.Load64(0, ws, 0); got != n*perRank {
				panic(fmt.Sprintf("counter = %d, want %d", got, n*perRank))
			}
			// Every pre-value in [0, n*perRank) must be observed exactly once.
			loc := p.Local(gather)
			all := make(map[int64]bool)
			for i := 0; i < n*perRank; i++ {
				v := pgas.GetI64(loc[i*wordBytes:])
				if v < 0 || v >= n*perRank {
					panic(fmt.Sprintf("pre-value %d out of range", v))
				}
				if all[v] {
					panic(fmt.Sprintf("pre-value %d observed twice", v))
				}
				all[v] = true
			}
		}
	})
}

func testCAS(t *testing.T, f Factory) {
	const n = 4
	w := f(n)
	run(t, w, func(p pgas.Proc) {
		ws := p.AllocWords(2)
		p.Barrier()
		if p.CAS64(0, ws, 0, 0, int64(p.Rank()+1)) {
			p.FetchAdd64(0, ws, 1, 1)
		}
		p.Barrier()
		if p.Rank() == 0 {
			if winners := p.Load64(0, ws, 1); winners != 1 {
				panic(fmt.Sprintf("CAS winners = %d, want exactly 1", winners))
			}
			v := p.Load64(0, ws, 0)
			if v < 1 || v > n {
				panic(fmt.Sprintf("CAS result %d out of range", v))
			}
		}
	})
}

// testAccF64: concurrent accumulates into one float64 array must sum exactly
// (each contribution is a power of two so float addition is exact).
func testAccF64(t *testing.T, f Factory) {
	const n = 4
	const vecLen = 16
	const reps = 50
	w := f(n)
	run(t, w, func(p pgas.Proc) {
		seg := p.AllocData(vecLen * pgas.F64Bytes)
		contrib := make([]float64, vecLen)
		for i := range contrib {
			contrib[i] = 0.25 // power of two: exact under fp addition
		}
		p.Barrier()
		for r := 0; r < reps; r++ {
			p.AccF64(0, seg, 0, contrib)
		}
		p.Barrier()
		if p.Rank() == 0 {
			got := make([]float64, vecLen)
			pgas.GetF64Slice(got, p.Local(seg))
			want := 0.25 * n * reps
			for i, v := range got {
				if v != want {
					panic(fmt.Sprintf("acc[%d] = %v, want %v", i, v, want))
				}
			}
		}
	})
}

// testAccContended: many ranks concurrently accumulate rank-distinct
// power-of-two contributions into one owner's array; every element's total
// must be exact, proving no accumulate was lost or torn.
func testAccContended(t *testing.T, f Factory) {
	const n = 6
	const vecLen = 8
	const reps = 25
	w := f(n)
	run(t, w, func(p pgas.Proc) {
		seg := p.AllocData(vecLen * pgas.F64Bytes)
		contrib := make([]float64, vecLen)
		for i := range contrib {
			contrib[i] = float64(int64(1) << uint(p.Rank())) // power of two: exact
		}
		p.Barrier()
		for r := 0; r < reps; r++ {
			p.AccF64(0, seg, 0, contrib)
		}
		p.Barrier()
		if p.Rank() == 0 {
			var want float64
			for r := 0; r < n; r++ {
				want += float64(int64(1)<<uint(r)) * reps
			}
			got := make([]float64, vecLen)
			pgas.GetF64Slice(got, p.Local(seg))
			for i, v := range got {
				if v != want {
					panic(fmt.Sprintf("contended acc[%d] = %v, want %v", i, v, want))
				}
			}
		}
	})
}

// testBarrierPhases: writes before a barrier must be visible after it.
func testBarrierPhases(t *testing.T, f Factory) {
	const n = 5
	const phases = 10
	w := f(n)
	run(t, w, func(p pgas.Proc) {
		ws := p.AllocWords(phases)
		for ph := 0; ph < phases; ph++ {
			p.Store64(p.Rank(), ws, ph, int64(ph*1000+p.Rank()))
			p.Barrier()
			for r := 0; r < n; r++ {
				if got := p.Load64(r, ws, ph); got != int64(ph*1000+r) {
					panic(fmt.Sprintf("rank %d phase %d: stale read %d from rank %d", p.Rank(), ph, got, r))
				}
			}
			p.Barrier()
		}
	})
}

func testBarrierRounds(t *testing.T, f Factory) {
	for _, n := range []int{1, 2, 3, 7, 8} {
		w := f(n)
		run(t, w, func(p pgas.Proc) {
			for i := 0; i < 20; i++ {
				p.Barrier()
			}
		})
	}
}

func testPingPong(t *testing.T, f Factory) {
	w := f(2)
	run(t, w, func(p pgas.Proc) {
		const rounds = 20
		if p.Rank() == 0 {
			for i := 0; i < rounds; i++ {
				p.Send(1, 7, []byte{byte(i)})
				data, src := p.Recv(1, 8)
				if src != 1 || len(data) != 1 || data[0] != byte(i+1) {
					panic(fmt.Sprintf("round %d: bad pong %v from %d", i, data, src))
				}
			}
		} else {
			for i := 0; i < rounds; i++ {
				data, src := p.Recv(0, 7)
				if src != 0 || data[0] != byte(i) {
					panic(fmt.Sprintf("round %d: bad ping %v", i, data))
				}
				p.Send(0, 8, []byte{byte(i + 1)})
			}
		}
	})
}

func testAnySource(t *testing.T, f Factory) {
	const n = 5
	w := f(n)
	run(t, w, func(p pgas.Proc) {
		if p.Rank() == 0 {
			got := make(map[int]bool)
			for i := 0; i < n-1; i++ {
				data, src := p.Recv(pgas.AnySource, 3)
				if int(data[0]) != src {
					panic(fmt.Sprintf("payload %d does not match source %d", data[0], src))
				}
				if got[src] {
					panic(fmt.Sprintf("duplicate message from %d", src))
				}
				got[src] = true
			}
		} else {
			p.Send(0, 3, []byte{byte(p.Rank())})
		}
	})
}

func testTryRecv(t *testing.T, f Factory) {
	w := f(2)
	run(t, w, func(p pgas.Proc) {
		ws := p.AllocWords(1)
		if p.Rank() == 0 {
			if _, _, ok := p.TryRecv(pgas.AnySource, 9); ok {
				panic("TryRecv returned a message before any send")
			}
			p.Store64(0, ws, 0, 1) // tell rank 1 to send
			var data []byte
			var ok bool
			for !ok {
				p.Compute(time.Microsecond)
				data, _, ok = p.TryRecv(1, 9)
			}
			if string(data) != "hello" {
				panic("wrong payload " + string(data))
			}
		} else {
			for p.Load64(0, ws, 0) != 1 {
				p.Compute(time.Microsecond)
			}
			p.Send(0, 9, []byte("hello"))
		}
	})
}

// testTryRecvDrain: rank 0 drains an AnySource TryRecv loop while several
// ranks send concurrently; no message may be lost, duplicated, or
// reordered within its sender, and nothing may remain after the drain.
func testTryRecvDrain(t *testing.T, f Factory) {
	const n = 5
	const k = 30
	w := f(n)
	run(t, w, func(p pgas.Proc) {
		if p.Rank() == 0 {
			next := make([]int, n)
			for got := 0; got < (n-1)*k; {
				data, src, ok := p.TryRecv(pgas.AnySource, 6)
				if !ok {
					p.Compute(time.Microsecond)
					continue
				}
				if len(data) != 2 || int(data[0]) != src {
					panic(fmt.Sprintf("mangled message %v from rank %d", data, src))
				}
				if int(data[1]) != next[src] {
					panic(fmt.Sprintf("rank %d message %d arrived when %d was expected", src, data[1], next[src]))
				}
				next[src]++
				got++
			}
			if _, src, ok := p.TryRecv(pgas.AnySource, 6); ok {
				panic(fmt.Sprintf("extra message from rank %d after all %d drained", src, (n-1)*k))
			}
		} else {
			for i := 0; i < k; i++ {
				p.Send(0, 6, []byte{byte(p.Rank()), byte(i)})
			}
		}
		p.Barrier()
	})
}

// testMessageOrder: messages between one (sender, receiver, tag) triple are
// received in send order.
func testMessageOrder(t *testing.T, f Factory) {
	w := f(2)
	const k = 50
	run(t, w, func(p pgas.Proc) {
		if p.Rank() == 0 {
			for i := 0; i < k; i++ {
				p.Send(1, 4, []byte{byte(i)})
			}
		} else {
			for i := 0; i < k; i++ {
				data, _ := p.Recv(0, 4)
				if data[0] != byte(i) {
					panic(fmt.Sprintf("message %d arrived out of order (got %d)", i, data[0]))
				}
			}
		}
	})
}

// testRelaxedWords: owner-private words written with RelaxedStore64 are
// observed by the owner's RelaxedLoad64, and ordered stores are observed
// remotely.
func testRelaxedWords(t *testing.T, f Factory) {
	w := f(2)
	run(t, w, func(p pgas.Proc) {
		ws := p.AllocWords(2)
		p.RelaxedStore64(ws, 0, int64(p.Rank())*10+5)
		if got := p.RelaxedLoad64(ws, 0); got != int64(p.Rank())*10+5 {
			panic(fmt.Sprintf("relaxed round trip got %d", got))
		}
		p.Store64(p.Rank(), ws, 1, int64(p.Rank())+100)
		p.Barrier()
		other := 1 - p.Rank()
		if got := p.Load64(other, ws, 1); got != int64(other)+100 {
			panic(fmt.Sprintf("ordered word from %d = %d", other, got))
		}
	})
}

// RunLocalStable runs the LocalStable case alone, for a stack of wrappers
// over a transport the full suite already covers.
func RunLocalStable(t *testing.T, f Factory) {
	t.Helper()
	t.Run("LocalStable", func(t *testing.T) { testLocalStable(t, f) })
}

// testLocalStable: Local and LocalWords return the same backing array,
// length and capacity on every call — across a Barrier and after later
// allocations — and that array is the instance remote operations reach
// (pgas.Kernel.Local, LocalWords). Only the array's identity is kept
// across the barrier, never the slice.
func testLocalStable(t *testing.T, f Factory) {
	w := f(2)
	run(t, w, func(p pgas.Proc) {
		seg := p.AllocData(64)
		ws := p.AllocWords(4)
		loc := p.Local(seg)
		//lint:ignore relaxedword the conformance case checks the slice Front resolves once
		lw := p.LocalWords(ws)
		base, n, c := &loc[0], len(loc), cap(loc)
		wbase, wn, wc := &lw[0], len(lw), cap(lw)
		same := func(when string) {
			s := p.Local(seg)
			if &s[0] != base || len(s) != n || cap(s) != c {
				panic(fmt.Sprintf("rank %d: Local %s is another slice (len %d, cap %d; first: len %d, cap %d)", p.Rank(), when, len(s), cap(s), n, c))
			}
			//lint:ignore relaxedword the conformance case checks the slice Front resolves once
			if s := p.LocalWords(ws); &s[0] != wbase || len(s) != wn || cap(s) != wc {
				panic(fmt.Sprintf("rank %d: LocalWords %s is another slice (len %d, cap %d; first: len %d, cap %d)", p.Rank(), when, len(s), cap(s), wn, wc))
			}
		}
		same("called again")
		p.Barrier()
		same("after a Barrier")
		for i := 0; i < 8; i++ {
			p.AllocData(1 << 10)
			p.AllocWords(16)
		}
		same("after later allocations")
		p.Local(seg)[0] = byte(10 + p.Rank())
		//lint:ignore relaxedword the conformance case checks the slice Front resolves once
		atomic.StoreInt64(&p.LocalWords(ws)[3], int64(20+p.Rank()))
		p.Barrier()
		var b [1]byte
		other := 1 - p.Rank()
		p.Get(b[:], other, seg, 0)
		if b[0] != byte(10+other) {
			panic(fmt.Sprintf("rank %d: Get of rank %d's first byte = %d, want what it wrote through Local", p.Rank(), other, b[0]))
		}
		if v := p.Load64(other, ws, 3); v != int64(20+other) {
			panic(fmt.Sprintf("rank %d: Load64 of rank %d's word 3 = %d, want what it stored through LocalWords", p.Rank(), other, v))
		}
		p.Barrier()
	})
}

func testSingleProc(t *testing.T, f Factory) {
	w := f(1)
	run(t, w, func(p pgas.Proc) {
		if p.NProcs() != 1 || p.Rank() != 0 {
			panic("bad world shape")
		}
		seg := p.AllocData(16)
		ws := p.AllocWords(1)
		p.Barrier()
		p.Put(0, seg, 0, []byte("abcdefgh"))
		got := make([]byte, 8)
		p.Get(got, 0, seg, 0)
		if string(got) != "abcdefgh" {
			panic("single-proc put/get failed")
		}
		p.FetchAdd64(0, ws, 0, 42)
		if p.Load64(0, ws, 0) != 42 {
			panic("single-proc fetch-add failed")
		}
		p.Barrier()
	})
}

// testEmptyBodyRelaunch: a world whose ranks have nothing to do is still a
// clean run, every time. On the multi-process transports the ranks exit
// within a millisecond of joining, which is the schedule that races the
// launcher's bootstrap bookkeeping against its exit reaping.
func testEmptyBodyRelaunch(t *testing.T, f Factory) {
	launches := 300
	if testing.Short() {
		launches = 20
	}
	for i := 0; i < launches; i++ {
		if err := f(2).Run(func(pgas.Proc) {}); err != nil {
			t.Fatalf("launch %d of an empty body failed: %v", i, err)
		}
	}
}

func testPanicPropagates(t *testing.T, f Factory, opts Options) {
	w := f(2)
	err := w.Run(func(p pgas.Proc) {
		if p.Rank() == 1 {
			panic("deliberate failure")
		}
		// Rank 0 does bounded local work and returns; it must not hang.
		p.Compute(time.Millisecond)
	})
	if err == nil && !opts.RankProcess {
		t.Fatal("expected an error from a panicking rank")
	}
}

func testRand(t *testing.T, f Factory, opts Options) {
	const n = 3
	if opts.MultiProcess {
		// Bodies run in separate address spaces, so draws cannot be
		// compared across worlds through captured variables. Check
		// per-rank stream distinctness through the PGAS instead.
		w := f(n)
		run(t, w, func(p pgas.Proc) {
			ws := p.AllocWords(n)
			p.Store64(0, ws, p.Rank(), p.Rand().Int63())
			p.Barrier()
			if p.Rank() == 0 {
				for i := 0; i < n; i++ {
					for j := i + 1; j < n; j++ {
						if a, b := p.Load64(0, ws, i), p.Load64(0, ws, j); a == b {
							panic(fmt.Sprintf("ranks %d and %d share a random stream (%d)", i, j, a))
						}
					}
				}
			}
		})
		return
	}
	draw := func() [n]int64 {
		var out [n]int64
		w := f(n)
		if err := w.Run(func(p pgas.Proc) {
			out[p.Rank()] = p.Rand().Int63()
		}); err != nil {
			t.Fatalf("rand world failed: %v", err)
		}
		return out
	}
	a, b := draw(), draw()
	if a != b {
		t.Fatalf("per-rank random streams are not reproducible: %v vs %v", a, b)
	}
	if a[0] == a[1] || a[1] == a[2] {
		t.Fatalf("ranks share a random stream: %v", a)
	}
}

// testClockPerRank: every layer of a rank's handle, walked by Unwrap down
// to the transport, returns the same *pgas.Clock; Now never decreases
// across Compute and Barrier; and Compute(d) advances Now by exactly d on a
// virtual clock and by at least d on a wall clock.
func testClockPerRank(t *testing.T, f Factory) {
	const d = 20 * time.Microsecond
	run(t, f(3), func(p pgas.Proc) {
		c := p.Clock()
		for k := pgas.Kernel(p); ; {
			if k.Clock() != c {
				panic(fmt.Sprintf("rank %d: layer %T returns its own clock", p.Rank(), k))
			}
			w, ok := k.(interface{ Unwrap() pgas.Kernel })
			if !ok {
				break
			}
			k = w.Unwrap()
		}
		last := p.Now()
		for i := 0; i < 5; i++ {
			p.Compute(d)
			now := p.Now()
			if adv := now - last; adv < d || c.Virtual() && adv != d {
				panic(fmt.Sprintf("rank %d: Compute(%v) advanced Now by %v (virtual %t)", p.Rank(), d, adv, c.Virtual()))
			}
			p.Barrier()
			if last = p.Now(); last < now {
				panic(fmt.Sprintf("rank %d: Now went from %v back to %v across a Barrier", p.Rank(), now, last))
			}
		}
	})
}

// RunEdgeCases runs the secondary conformance suite: degenerate sizes,
// self-targeting operations, tag spaces and offset arithmetic.
func RunEdgeCases(t *testing.T, newWorld Factory) {
	t.Helper()
	RunEdgeCasesOptions(t, newWorld, Options{})
}

// RunEdgeCasesOptions is RunEdgeCases with transport options.
func RunEdgeCasesOptions(t *testing.T, newWorld Factory, opts Options) {
	t.Helper()
	t.Run("ZeroLengthTransfers", func(t *testing.T) { testZeroLength(t, newWorld) })
	t.Run("SendToSelf", func(t *testing.T) { testSendToSelf(t, newWorld) })
	t.Run("TagIsolation", func(t *testing.T) { testTagIsolation(t, newWorld) })
	t.Run("OffsetArithmetic", func(t *testing.T) { testOffsets(t, newWorld) })
	t.Run("ManySegments", func(t *testing.T) { testManySegments(t, newWorld) })
	t.Run("ConcurrentWorlds", func(t *testing.T) {
		if opts.MultiProcess {
			// Concurrent NewWorld calls would desynchronize the
			// parent/child world-sequence numbering the multi-process
			// launcher depends on (see pgas/tcp doc.go).
			t.Skip("multi-process transports require a deterministic world-creation order")
		}
		testConcurrentWorlds(t, newWorld)
	})
	t.Run("EmptyAcc", func(t *testing.T) { testEmptyAcc(t, newWorld) })
}

func testZeroLength(t *testing.T, f Factory) {
	w := f(2)
	run(t, w, func(p pgas.Proc) {
		seg := p.AllocData(8)
		p.Put(1-p.Rank(), seg, 4, nil)
		p.Get(nil, 1-p.Rank(), seg, 8) // offset at end, zero bytes: legal
		p.Send(1-p.Rank(), 2, nil)
		data, src := p.Recv(1-p.Rank(), 2)
		if len(data) != 0 || src != 1-p.Rank() {
			panic("zero-length message mangled")
		}
	})
}

func testSendToSelf(t *testing.T, f Factory) {
	w := f(2)
	run(t, w, func(p pgas.Proc) {
		p.Send(p.Rank(), 5, []byte{42})
		data, src := p.Recv(p.Rank(), 5)
		if src != p.Rank() || data[0] != 42 {
			panic("self-send failed")
		}
		// One-sided to self must work too.
		ws := p.AllocWords(1)
		p.FetchAdd64(p.Rank(), ws, 0, 7)
		if p.Load64(p.Rank(), ws, 0) != 7 {
			panic("self fetch-add failed")
		}
	})
}

func testTagIsolation(t *testing.T, f Factory) {
	w := f(2)
	run(t, w, func(p pgas.Proc) {
		if p.Rank() == 0 {
			// Send three tags out of the order the receiver collects them.
			p.Send(1, 30, []byte{30})
			p.Send(1, 10, []byte{10})
			p.Send(1, -1000000, []byte{99})
		} else {
			if d, _ := p.Recv(0, 10); d[0] != 10 {
				panic("tag 10 mismatched")
			}
			if d, _ := p.Recv(0, -1000000); d[0] != 99 {
				panic("negative tag mismatched")
			}
			if d, _ := p.Recv(0, 30); d[0] != 30 {
				panic("tag 30 mismatched")
			}
		}
	})
}

func testOffsets(t *testing.T, f Factory) {
	w := f(2)
	run(t, w, func(p pgas.Proc) {
		const n = 256
		seg := p.AllocData(n)
		p.Barrier()
		if p.Rank() == 0 {
			// Write single bytes at scattered offsets on rank 1.
			for _, off := range []int{0, 1, 7, 8, 127, 255} {
				p.Put(1, seg, off, []byte{byte(off)})
			}
		}
		p.Barrier()
		if p.Rank() == 1 {
			loc := p.Local(seg)
			for _, off := range []int{0, 1, 7, 8, 127, 255} {
				if loc[off] != byte(off) {
					panic(fmt.Sprintf("offset %d holds %d", off, loc[off]))
				}
			}
		}
	})
}

func testManySegments(t *testing.T, f Factory) {
	w := f(2)
	run(t, w, func(p pgas.Proc) {
		const k = 40
		segs := make([]pgas.Seg, k)
		for i := range segs {
			segs[i] = p.AllocData(16)
		}
		p.Barrier()
		for i, s := range segs {
			p.Put(1-p.Rank(), s, 0, []byte{byte(i), byte(p.Rank())})
		}
		p.Barrier()
		for i, s := range segs {
			loc := p.Local(s)
			if loc[0] != byte(i) || loc[1] != byte(1-p.Rank()) {
				panic(fmt.Sprintf("segment %d cross-talk: %v", i, loc[:2]))
			}
		}
	})
}

// testConcurrentWorlds: two independent worlds running interleaved must not
// share any state.
func testConcurrentWorlds(t *testing.T, f Factory) {
	done := make(chan error, 2)
	for inst := 0; inst < 2; inst++ {
		inst := inst
		go func() {
			w := f(3)
			done <- w.Run(func(p pgas.Proc) {
				ws := p.AllocWords(1)
				for i := 0; i < 50; i++ {
					p.FetchAdd64(0, ws, 0, int64(inst+1))
				}
				p.Barrier()
				if p.Rank() == 0 {
					want := int64(3 * 50 * (inst + 1))
					if got := p.Load64(0, ws, 0); got != want {
						panic(fmt.Sprintf("world %d: counter %d, want %d", inst, got, want))
					}
				}
			})
		}()
	}
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatalf("concurrent world failed: %v", err)
		}
	}
}

func testEmptyAcc(t *testing.T, f Factory) {
	w := f(2)
	run(t, w, func(p pgas.Proc) {
		seg := p.AllocData(16)
		p.AccF64(1-p.Rank(), seg, 0, nil) // zero-element accumulate: no-op
		p.Barrier()
		for _, b := range p.Local(seg) {
			if b != 0 {
				panic("empty accumulate wrote data")
			}
		}
	})
}
