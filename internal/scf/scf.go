package scf

import (
	"fmt"

	"scioto/internal/linalg"
)

// Density returns the closed-shell density D = 2 C_occ C_occᵀ from orbital
// coefficients (columns of c, lowest-eigenvalue first).
func (sys *System) Density(c *linalg.Mat) *linalg.Mat {
	d := linalg.NewMat(sys.N, sys.N)
	for i := 0; i < sys.N; i++ {
		for j := 0; j < sys.N; j++ {
			sum := 0.0
			for o := 0; o < sys.NOcc; o++ {
				sum += c.At(i, o) * c.At(j, o)
			}
			d.Set(i, j, 2*sum)
		}
	}
	return d
}

// Energy returns the closed-shell SCF energy for density d and Fock matrix
// f (= H + G): E = 1/2 Σ_ij D_ij (H_ij + F_ij) + E_nuc.
func (sys *System) Energy(d, f *linalg.Mat) float64 {
	e := 0.0
	for i := range d.Data {
		e += d.Data[i] * (sys.H.Data[i] + f.Data[i])
	}
	return 0.5*e + sys.Enuc
}

// FockSerial builds the full two-electron part G(D) block by block with the
// same screened kernel the parallel builders use. It returns G and the
// number of integrals evaluated.
func (sys *System) FockSerial(d *linalg.Mat) (*linalg.Mat, int64) {
	g := linalg.NewMat(sys.N, sys.N)
	blk := make([]float64, sys.Cfg.BlockSize*sys.Cfg.BlockSize)
	getD := func(bk, bl int) []float64 {
		kLo, kHi := sys.blockRange(bk)
		lLo, lHi := sys.blockRange(bl)
		out := make([]float64, (kHi-kLo)*(lHi-lLo))
		for k := kLo; k < kHi; k++ {
			for l := lLo; l < lHi; l++ {
				out[(k-kLo)*(lHi-lLo)+(l-lLo)] = d.At(k, l)
			}
		}
		return out
	}
	var count int64
	for bi := 0; bi < sys.NB; bi++ {
		for bj := 0; bj < sys.NB; bj++ {
			count += sys.FockBlock(bi, bj, blk, getD)
			iLo, iHi := sys.blockRange(bi)
			jLo, jHi := sys.blockRange(bj)
			for i := iLo; i < iHi; i++ {
				for j := jLo; j < jHi; j++ {
					g.Set(i, j, blk[(i-iLo)*(jHi-jLo)+(j-jLo)])
				}
			}
		}
	}
	return g, count
}

// SCFResult reports a self-consistency loop's outcome.
type SCFResult struct {
	Energy     float64
	Iterations int
	Converged  bool
	Integrals  int64
	History    []float64 // energy per iteration
}

// scfOptions are the loop controls shared by the serial and parallel paths.
type scfOptions struct {
	maxIter  int
	convTol  float64
	damping  float64 // density damping used before DIIS engages
	diisSize int     // DIIS history length (0 disables DIIS)
}

func defaultOpts() scfOptions {
	return scfOptions{maxIter: 40, convTol: 1e-8, damping: 0.5, diisSize: 6}
}

// scfLoop is the replicated, deterministic part of a self-consistency run:
// density, DIIS history, and convergence tracking. The serial reference and
// both parallel builders drive the same loop object, differing only in how
// the two-electron matrix G is produced — which is precisely the part the
// paper parallelizes.
type scfLoop struct {
	sys  *System
	opts scfOptions

	d     *linalg.Mat
	fHist []*linalg.Mat
	eHist []*linalg.Mat
	prevE float64
	iter  int
}

func (sys *System) newLoop(opts scfOptions) *scfLoop {
	return &scfLoop{sys: sys, opts: opts, d: sys.initialDensity()}
}

// density returns the current (replicated) density matrix.
func (l *scfLoop) density() *linalg.Mat { return l.d }

// step consumes the two-electron matrix G built for the current density
// and produces the next density via DIIS-accelerated (Pulay-mixed) Roothaan
// iteration. It returns the SCF energy of the current density and whether
// self-consistency has been reached.
func (l *scfLoop) step(g *linalg.Mat) (energy float64, converged bool) {
	sys := l.sys
	f := sys.H.Clone()
	for i := range f.Data {
		f.Data[i] += g.Data[i]
	}
	energy = sys.Energy(l.d, f)

	// DIIS error: the commutator FDS - SDF vanishes at self-consistency.
	fds := linalg.MatMul(linalg.MatMul(f, l.d), sys.S)
	err := fds.Clone()
	sdf := fds.T() // (FDS)ᵀ = SᵀDᵀFᵀ = SDF for symmetric F, D, S
	for i := range err.Data {
		err.Data[i] -= sdf.Data[i]
	}
	errNorm := err.FrobeniusNorm()

	fUse := f
	if l.opts.diisSize > 1 {
		l.fHist = append(l.fHist, f)
		l.eHist = append(l.eHist, err)
		if len(l.fHist) > l.opts.diisSize {
			l.fHist = l.fHist[1:]
			l.eHist = l.eHist[1:]
		}
		if ext := l.diisExtrapolate(); ext != nil {
			fUse = ext
		}
	}

	_, c := linalg.SolveOrtho(fUse, sys.X)
	dNew := sys.Density(c)
	if len(l.fHist) < 2 && l.opts.damping > 0 {
		// Before DIIS has a usable history, damp to avoid early cycling.
		for i := range dNew.Data {
			dNew.Data[i] = (1-l.opts.damping)*dNew.Data[i] + l.opts.damping*l.d.Data[i]
		}
	}
	l.d = dNew

	converged = l.iter > 0 && abs(energy-l.prevE) < l.opts.convTol && errNorm < 1e-5
	l.prevE = energy
	l.iter++
	return energy, converged
}

// diisExtrapolate solves the Pulay least-squares system over the stored
// history and returns the extrapolated Fock matrix, or nil when the system
// is degenerate (caller falls back to the plain Fock matrix).
func (l *scfLoop) diisExtrapolate() *linalg.Mat {
	m := len(l.fHist)
	if m < 2 {
		return nil
	}
	// Lagrangian system: [B 1; 1 0] [c; λ] = [0; 1].
	b := linalg.NewMat(m+1, m+1)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			dot := 0.0
			for k := range l.eHist[i].Data {
				dot += l.eHist[i].Data[k] * l.eHist[j].Data[k]
			}
			b.Set(i, j, dot)
		}
		b.Set(i, m, 1)
		b.Set(m, i, 1)
	}
	rhs := make([]float64, m+1)
	rhs[m] = 1
	coef, ok := linalg.SolveLinear(b, rhs)
	if !ok {
		return nil
	}
	out := linalg.NewMat(l.sys.N, l.sys.N)
	for i := 0; i < m; i++ {
		ci := coef[i]
		for k := range out.Data {
			out.Data[k] += ci * l.fHist[i].Data[k]
		}
	}
	return out
}

// initialDensity is the core-Hamiltonian guess: solve H C = S C e.
func (sys *System) initialDensity() *linalg.Mat {
	_, c := linalg.SolveOrtho(sys.H, sys.X)
	return sys.Density(c)
}

// SCFSerial runs the full self-consistency loop on one process, as the
// correctness reference for the parallel implementations.
func (sys *System) SCFSerial(maxIter int, convTol float64) SCFResult {
	opts := defaultOpts()
	if maxIter > 0 {
		opts.maxIter = maxIter
	}
	if convTol > 0 {
		opts.convTol = convTol
	}
	loop := sys.newLoop(opts)
	res := SCFResult{}
	for it := 0; it < opts.maxIter; it++ {
		g, n := sys.FockSerial(loop.density())
		res.Integrals += n
		e, done := loop.step(g)
		res.History = append(res.History, e)
		res.Iterations = it + 1
		res.Energy = e
		if done {
			res.Converged = true
			return res
		}
	}
	return res
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// String renders the result for logs.
func (r SCFResult) String() string {
	return fmt.Sprintf("E=%.10f iters=%d converged=%v integrals=%d", r.Energy, r.Iterations, r.Converged, r.Integrals)
}
