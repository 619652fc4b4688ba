// Package scf implements a miniature closed-shell Self-Consistent Field
// (Hartree-Fock) application in the mold of the paper's SCF benchmark
// (Tilson et al.'s scalable SCF): the Fock matrix is assembled from
// two-electron integrals over distributed density/Fock matrices held in
// Global Arrays, with per-block tasks whose costs vary wildly because of
// Schwarz screening — the irregularity that motivates dynamic load
// balancing.
//
// The chemistry is synthetic (the paper's code computes real Gaussian
// integrals; we have no basis-set tables), but structurally faithful:
//
//   - a "molecule" of N centers with per-center exponents defines an
//     overlap-like matrix S and a core Hamiltonian H,
//   - the two-electron integral (ij|kl) = S_ij S_kl / (1 + r_PQ) obeys the
//     same 8-fold permutational symmetry as the real thing and satisfies
//     the Schwarz inequality |(ij|kl)| <= sqrt((ij|ij)(kl|kl)) = S_ij S_kl
//     exactly, so screening behaves exactly as in a production code,
//   - the SCF loop (Fock build, eigensolve, density update with damping,
//     energy until self-consistency) is the real algorithm.
package scf

import (
	"fmt"
	"math"
	"math/rand"

	"scioto/internal/linalg"
)

// SystemConfig describes a synthetic molecular system.
type SystemConfig struct {
	// NAtoms is the number of centers; one basis function per center, so
	// it is also the matrix dimension. Must be even (closed shell).
	NAtoms int
	// BlockSize is the task/distribution granularity of the Fock and
	// density matrices.
	BlockSize int
	// Seed determines positions and exponents.
	Seed int64
	// Box is the side length of the placement cube (density controls how
	// aggressive screening is). Zero means 4.0 * cbrt(NAtoms).
	Box float64
	// ScreenTol is the Schwarz screening threshold. Zero means 1e-9.
	ScreenTol float64
}

func (c SystemConfig) withDefaults() SystemConfig {
	if c.Box == 0 {
		c.Box = 4.0 * math.Cbrt(float64(c.NAtoms))
	}
	if c.ScreenTol == 0 {
		c.ScreenTol = 1e-9
	}
	if c.BlockSize == 0 {
		c.BlockSize = 4
	}
	return c
}

// System holds the precomputed, replicated parts of the synthetic system:
// geometry, overlap, core Hamiltonian, and block-level Schwarz bounds.
// Everything here is a deterministic function of the config, so every
// process builds an identical copy (as the paper's SCF does for its
// one-electron data), while the density and Fock matrices live in Global
// Arrays.
type System struct {
	Cfg  SystemConfig
	N    int // basis dimension
	NOcc int // occupied orbitals (N electrons, closed shell)

	Pos   [][3]float64
	Alpha []float64
	Zeta  []float64 // per-center diagonal disorder (site energies)

	S    *linalg.Mat // overlap
	H    *linalg.Mat // core Hamiltonian
	Enuc float64

	NB      int         // number of blocks per dimension
	SmaxBlk *linalg.Mat // NB x NB block-max overlap (Schwarz bounds)
}

// NewSystem builds the synthetic system.
func NewSystem(cfg SystemConfig) *System {
	cfg = cfg.withDefaults()
	if cfg.NAtoms <= 0 || cfg.NAtoms%2 != 0 {
		panic(fmt.Sprintf("scf: NAtoms must be positive and even, got %d", cfg.NAtoms))
	}
	n := cfg.NAtoms
	sys := &System{
		Cfg:   cfg,
		N:     n,
		NOcc:  n / 2,
		Pos:   make([][3]float64, n),
		Alpha: make([]float64, n),
		Zeta:  make([]float64, n),
		NB:    (n + cfg.BlockSize - 1) / cfg.BlockSize,
	}
	rng := rand.New(rand.NewSource(cfg.Seed*2654435761 + 17))
	for i := 0; i < n; i++ {
		for d := 0; d < 3; d++ {
			sys.Pos[i][d] = rng.Float64() * cfg.Box
		}
		sys.Alpha[i] = 0.8 + 0.4*rng.Float64()
		// Site-energy ramp: guarantees a spread-out, gapped spectrum so
		// the self-consistency iteration is well conditioned for every
		// seed (random disorder occasionally produces accidental
		// degeneracies that cycle).
		sys.Zeta[i] = 2.0 * float64(i) / float64(n)
	}

	// Overlap-like matrix: S_ij = exp(-mu_ij r_ij^2), S_ii = 1.
	sys.S = linalg.NewMat(n, n)
	for i := 0; i < n; i++ {
		sys.S.Set(i, i, 1)
		for j := i + 1; j < n; j++ {
			mu := sys.Alpha[i] * sys.Alpha[j] / (sys.Alpha[i] + sys.Alpha[j])
			v := math.Exp(-mu * sys.r2(i, j))
			sys.S.Set(i, j, v)
			sys.S.Set(j, i, v)
		}
	}

	// Core Hamiltonian: attractive diagonal (with per-site disorder, which
	// keeps the spectrum gapped and the SCF iteration well conditioned)
	// plus overlap-weighted coupling, symmetric by construction.
	sys.H = linalg.NewMat(n, n)
	for i := 0; i < n; i++ {
		sys.H.Set(i, i, -2.0-0.5*sys.Alpha[i]-sys.Zeta[i])
		for j := i + 1; j < n; j++ {
			v := -1.2 * sys.S.At(i, j)
			sys.H.Set(i, j, v)
			sys.H.Set(j, i, v)
		}
	}

	// Synthetic nuclear repulsion.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			sys.Enuc += 1.0 / (1.0 + math.Sqrt(sys.r2(i, j)))
		}
	}

	// Block-level Schwarz bounds: max |S_ij| over each block pair.
	sys.SmaxBlk = linalg.NewMat(sys.NB, sys.NB)
	for bi := 0; bi < sys.NB; bi++ {
		for bj := 0; bj < sys.NB; bj++ {
			max := 0.0
			for i := bi * cfg.BlockSize; i < (bi+1)*cfg.BlockSize && i < n; i++ {
				for j := bj * cfg.BlockSize; j < (bj+1)*cfg.BlockSize && j < n; j++ {
					if v := math.Abs(sys.S.At(i, j)); v > max {
						max = v
					}
				}
			}
			sys.SmaxBlk.Set(bi, bj, max)
		}
	}
	return sys
}

func (sys *System) r2(i, j int) float64 {
	dx := sys.Pos[i][0] - sys.Pos[j][0]
	dy := sys.Pos[i][1] - sys.Pos[j][1]
	dz := sys.Pos[i][2] - sys.Pos[j][2]
	return dx*dx + dy*dy + dz*dz
}

// pairCenter is the overlap-weighted midpoint of centers i and j.
func (sys *System) pairCenter(i, j int) [3]float64 {
	ai, aj := sys.Alpha[i], sys.Alpha[j]
	w := ai / (ai + aj)
	var c [3]float64
	for d := 0; d < 3; d++ {
		c[d] = w*sys.Pos[i][d] + (1-w)*sys.Pos[j][d]
	}
	return c
}

// eriScale is the coupling strength of the synthetic two-electron term.
// Keeping it below the core-Hamiltonian scale conditions the fixed-point
// SCF iteration (the paper's production code has DIIS for this; simple
// damping suffices when the two-electron term does not dominate).
const eriScale = 0.3

// TwoElectron evaluates the synthetic two-electron integral (ij|kl). It has
// the full 8-fold permutational symmetry and its Schwarz bound
// sqrt((ij|ij)(kl|kl)) equals eriScale*S_ij*S_kl exactly.
func (sys *System) TwoElectron(i, j, k, l int) float64 {
	sij := sys.S.At(i, j)
	skl := sys.S.At(k, l)
	if sij == 0 || skl == 0 {
		return 0
	}
	p := sys.pairCenter(i, j)
	q := sys.pairCenter(k, l)
	dx, dy, dz := p[0]-q[0], p[1]-q[1], p[2]-q[2]
	r := math.Sqrt(dx*dx + dy*dy + dz*dz)
	return eriScale * sij * skl / (1 + r)
}

// blockRange returns the element range [lo, hi) of block b.
func (sys *System) blockRange(b int) (lo, hi int) {
	lo = b * sys.Cfg.BlockSize
	hi = lo + sys.Cfg.BlockSize
	if hi > sys.N {
		hi = sys.N
	}
	return lo, hi
}

// needs is the block-level Schwarz screen: whether any Coulomb integral
// (ij|kl), and whether any exchange integral (ik|jl), with ij in block
// (bi, bj) and kl in block (bk, bl) can exceed the screening threshold.
// Density block (bk, bl) contributes to Fock block (bi, bj) — and a parallel
// builder has to fetch it — exactly when either does.
func (sys *System) needs(bi, bj, bk, bl int) (coulomb, exchange bool) {
	tol := sys.Cfg.ScreenTol
	return sys.SmaxBlk.At(bi, bj)*sys.SmaxBlk.At(bk, bl) > tol,
		sys.SmaxBlk.At(bi, bk)*sys.SmaxBlk.At(bj, bl) > tol
}

// FockBlock computes the contribution of all (significant) integrals to
// Fock block (bi, bj) for density d (full, replicated or fetched), writing
// into out (row-major block) and returning the number of integrals
// evaluated. getD returns the density block (bk, bl) as a row-major slice;
// the parallel builders fetch it from the Global Array, the serial
// reference reads the local matrix.
func (sys *System) FockBlock(bi, bj int, out []float64, getD func(bk, bl int) []float64) int64 {
	tol := sys.Cfg.ScreenTol
	iLo, iHi := sys.blockRange(bi)
	jLo, jHi := sys.blockRange(bj)
	cols := jHi - jLo
	for x := range out[:(iHi-iLo)*cols] {
		out[x] = 0
	}
	var count int64
	for bk := 0; bk < sys.NB; bk++ {
		for bl := 0; bl < sys.NB; bl++ {
			needJ, needK := sys.needs(bi, bj, bk, bl)
			if !needJ && !needK {
				continue
			}
			kLo, kHi := sys.blockRange(bk)
			lLo, lHi := sys.blockRange(bl)
			dblk := getD(bk, bl)
			dCols := lHi - lLo
			for i := iLo; i < iHi; i++ {
				for j := jLo; j < jHi; j++ {
					f := 0.0
					sij := sys.S.At(i, j)
					for k := kLo; k < kHi; k++ {
						sik := sys.S.At(i, k)
						for l := lLo; l < lHi; l++ {
							dkl := dblk[(k-kLo)*dCols+(l-lLo)]
							if dkl == 0 {
								continue
							}
							// Coulomb: + D_kl (ij|kl)
							if needJ && sij*sys.S.At(k, l) > tol {
								f += dkl * sys.TwoElectron(i, j, k, l)
								count++
							}
							// Exchange: - 1/2 D_kl (ik|jl)
							if needK && sik*sys.S.At(j, l) > tol {
								f -= 0.5 * dkl * sys.TwoElectron(i, k, j, l)
								count++
							}
						}
					}
					out[(i-iLo)*cols+(j-jLo)] += f
				}
			}
		}
	}
	return count
}
