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
	"scioto/internal/linalg"
	"scioto/internal/pgas"
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

func BenchmarkEigenSym16(b *testing.B) {
	m := linalg.NewMat(16, 16)
	for i := 0; i < 16; i++ {
		for j := i; j < 16; j++ {
			v := float64((i*31+j*17)%13) - 6
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		linalg.EigenSym(m)
	}
}

func BenchmarkDsimEngineYield(b *testing.B) {
	// Cost of one simulated ordered operation (engine handshake).
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
