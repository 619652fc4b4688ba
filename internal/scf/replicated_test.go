package scf

import "testing"

// BenchmarkSCFReplicated48 is the replicated part of one scf-tcp round, the
// work every rank repeats besides its share of the Fock build: building the
// 48-atom system, the core-Hamiltonian guess and one DIIS step on a
// two-electron matrix computed beforehand.
func BenchmarkSCFReplicated48(b *testing.B) {
	cfg := SystemConfig{NAtoms: 48, BlockSize: 4, Seed: 12}
	sys := NewSystem(cfg)
	g, _ := sys.FockSerial(sys.initialDensity())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewSystem(cfg).newLoop(defaultOpts()).step(g)
	}
}
