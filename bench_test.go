package scioto_test

// Substrate microbenchmarks: the wall-clock cost of the pieces the
// experiments are built from and that no golden or test exercises as a
// number. The paper's tables and figures are reproduced in virtual time by
// `go run ./cmd/sciotobench -exp all` and pinned to the nanosecond by the
// golden tests of internal/bench; the runtime's own paths have
// internal/core's BenchmarkOwnerPath and BenchmarkRemoteSteal.

import (
	"testing"

	"scioto/internal/bench"
	"scioto/internal/core"
	"scioto/internal/linalg"
	"scioto/internal/pgas"
	"scioto/internal/scf"
	"scioto/internal/uts"
)

func BenchmarkUTSChildGen(b *testing.B) {
	n := uts.TreeSmall.Root()
	for i := 0; i < b.N; i++ {
		n = uts.Child(n, i&3)
		n.Depth = 1
	}
}

func BenchmarkGemmBlock8(b *testing.B) {
	const bs = 8
	a := make([]float64, bs*bs)
	bb := make([]float64, bs*bs)
	c := make([]float64, bs*bs)
	for i := range a {
		a[i] = float64(i)
		bb[i] = float64(i) * 0.5
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		linalg.GemmBlock(c, a, bb, bs, bs, bs)
	}
}

// BenchmarkEigenSym48 is one symmetric eigensolve at the size the scf-tcp
// workload runs: the overlap matrix of a 48-atom system of its table.
func BenchmarkEigenSym48(b *testing.B) {
	s := scf.NewSystem(scf.SystemConfig{NAtoms: 48, BlockSize: 4, Seed: 12}).S
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		linalg.EigenSym(s)
	}
}

// BenchmarkDsimEngineYield is one simulated ordered operation of a rank
// that stays the minimum clock: rank 1 has returned, so every yield keeps
// the token (the engine's fast path).
func BenchmarkDsimEngineYield(b *testing.B) {
	if err := bench.ClusterWorld(2, 1).Run(func(p pgas.Proc) {
		seg := p.AllocWords(1)
		p.Barrier()
		if p.Rank() == 0 {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Load64(0, seg, 0)
			}
		}
	}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkDsimEngineHandoff is one simulated ordered operation that passes
// the token: two ranks at equal clocks alternate equal-cost local ops, so
// every yield hands over to the other rank. Each op is one b.N iteration.
func BenchmarkDsimEngineHandoff(b *testing.B) {
	if err := bench.ClusterWorld(2, 1).Run(func(p pgas.Proc) {
		seg := p.AllocWords(1) // both ranks leave it at the same clock
		if p.Rank() == 0 {
			b.ResetTimer()
		}
		for i := p.Rank(); i < b.N; i += 2 {
			p.Load64(p.Rank(), seg, 0)
		}
	}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkDsimWorldLaunch is the set-up cycle of the benchmark's
// uts-dsim64 workload: a 64-rank cluster world that creates one task
// collection (24-byte bodies, 8,192 tasks per rank) and meets at a barrier.
func BenchmarkDsimWorldLaunch(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := bench.ClusterWorld(64, 1).Run(func(p pgas.Proc) {
			core.NewTC(core.Attach(p), core.Config{MaxBodySize: uts.NodeBytes, ChunkSize: 10, MaxTasks: 1 << 13})
			p.Barrier()
		}); err != nil {
			b.Fatal(err)
		}
	}
}
