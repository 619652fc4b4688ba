package scf_test

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"scioto/internal/apptest"
	"scioto/internal/core"
	"scioto/internal/linalg"
	"scioto/internal/pgas"
	"scioto/internal/pgas/dsim"
	"scioto/internal/pgas/shm"
	"scioto/internal/scf"
)

var testSys = scf.SystemConfig{NAtoms: 16, BlockSize: 4, Seed: 7}

func TestSystemDeterministic(t *testing.T) {
	a := scf.NewSystem(testSys)
	b := scf.NewSystem(testSys)
	if linalg.MaxAbsDiff(a.S, b.S) != 0 || linalg.MaxAbsDiff(a.H, b.H) != 0 || a.Enuc != b.Enuc {
		t.Error("system construction not deterministic")
	}
}

func TestSystemSymmetry(t *testing.T) {
	sys := scf.NewSystem(testSys)
	if !sys.S.IsSymmetric(0) {
		t.Error("overlap not symmetric")
	}
	if !sys.H.IsSymmetric(0) {
		t.Error("core Hamiltonian not symmetric")
	}
	for i := 0; i < sys.N; i++ {
		if sys.S.At(i, i) != 1 {
			t.Errorf("S[%d,%d] = %v, want 1", i, i, sys.S.At(i, i))
		}
	}
}

// TestTwoElectronSymmetryAndSchwarz: the synthetic integral must have the
// 8-fold permutational symmetry and satisfy its Schwarz bound exactly.
func TestTwoElectronSymmetryAndSchwarz(t *testing.T) {
	sys := scf.NewSystem(testSys)
	idx := [][4]int{{0, 1, 2, 3}, {5, 5, 9, 2}, {3, 3, 3, 3}, {1, 0, 15, 14}, {7, 2, 7, 2}}
	for _, q := range idx {
		i, j, k, l := q[0], q[1], q[2], q[3]
		v := sys.TwoElectron(i, j, k, l)
		perms := [][4]int{
			{j, i, k, l}, {i, j, l, k}, {j, i, l, k},
			{k, l, i, j}, {l, k, i, j}, {k, l, j, i}, {l, k, j, i},
		}
		for _, p := range perms {
			if got := sys.TwoElectron(p[0], p[1], p[2], p[3]); math.Abs(got-v) > 1e-15 {
				t.Errorf("(%v) = %v but perm %v = %v", q, v, p, got)
			}
		}
		bound := math.Sqrt(sys.TwoElectron(i, j, i, j) * sys.TwoElectron(k, l, k, l))
		if math.Abs(v) > bound+1e-15 {
			t.Errorf("Schwarz violated for %v: |%v| > %v", q, v, bound)
		}
	}
}

// TestFockBlockMatchesSerialAssembly: FockSerial is self-consistent with
// per-block evaluation on a nontrivial density.
func TestFockBlockMatchesSerialAssembly(t *testing.T) {
	sys := scf.NewSystem(testSys)
	// Use a density-like symmetric matrix.
	d := linalg.NewMat(sys.N, sys.N)
	for i := 0; i < sys.N; i++ {
		for j := 0; j < sys.N; j++ {
			d.Set(i, j, 1.0/(1.0+math.Abs(float64(i-j))))
		}
	}
	g1, n1 := sys.FockSerial(d)
	g2, n2 := sys.FockSerial(d)
	if n1 != n2 || linalg.MaxAbsDiff(g1, g2) != 0 {
		t.Error("serial Fock build not deterministic")
	}
	if !g1.IsSymmetric(1e-10) {
		t.Error("two-electron Fock part not symmetric for symmetric density")
	}
	if n1 == 0 {
		t.Error("no integrals evaluated")
	}
}

// TestScreeningReducesWork: a loose screening threshold must evaluate fewer
// integrals without changing the energy much.
func TestScreeningReducesWork(t *testing.T) {
	tight := testSys
	tight.ScreenTol = 1e-14
	loose := testSys
	loose.ScreenTol = 1e-6
	rTight := scf.NewSystem(tight).SCFSerial(15, 1e-9)
	rLoose := scf.NewSystem(loose).SCFSerial(15, 1e-9)
	if rLoose.Integrals >= rTight.Integrals {
		t.Errorf("loose screening evaluated %d integrals, tight %d", rLoose.Integrals, rTight.Integrals)
	}
	if math.Abs(rLoose.Energy-rTight.Energy) > 1e-3 {
		t.Errorf("screening changed the energy too much: %v vs %v", rLoose.Energy, rTight.Energy)
	}
}

// TestSerialSCFConverges: the loop reaches self-consistency.
func TestSerialSCFConverges(t *testing.T) {
	sys := scf.NewSystem(testSys)
	res := sys.SCFSerial(40, 1e-8)
	t.Logf("serial SCF: %v", res)
	if !res.Converged {
		t.Fatalf("SCF did not converge: %v (history %v)", res, res.History)
	}
	if res.Energy >= 0 {
		t.Errorf("suspicious positive energy %v", res.Energy)
	}
	// The last few energies should be nearly constant.
	h := res.History
	if len(h) >= 2 && math.Abs(h[len(h)-1]-h[len(h)-2]) > 1e-7 {
		t.Errorf("energy still moving at convergence: %v", h)
	}
}

// TestParallelMatchesSerial: both parallel methods reproduce the serial
// energy on both transports. Because each Fock block is computed by exactly
// one task with a fixed inner loop order, the parallel G matrix is bitwise
// equal to the serial one and energies agree to machine precision.
func TestParallelMatchesSerial(t *testing.T) {
	want := scf.NewSystem(testSys).SCFSerial(12, 0)
	for _, method := range []scf.Method{scf.MethodCounter, scf.MethodScioto} {
		for _, n := range []int{1, 4} {
			worlds := map[string]pgas.World{
				"shm":  shm.NewWorld(shm.Config{NProcs: n, Seed: 23}),
				"dsim": dsim.NewWorld(dsim.Config{NProcs: n, Seed: 23}),
			}
			for name, w := range worlds {
				err := w.Run(func(p pgas.Proc) {
					res, err := scf.Run(p, scf.RunConfig{
						Sys:     testSys,
						Method:  method,
						MaxIter: 12,
						TC:      core.Config{ChunkSize: 2},
					})
					if err != nil {
						panic(err)
					}
					if math.Abs(res.SCF.Energy-want.Energy) > 1e-10 {
						panic("parallel energy diverges from serial")
					}
					if res.SCF.Iterations != want.Iterations {
						panic("iteration count differs from serial")
					}
					if res.SCF.Integrals != want.Integrals {
						panic("integral count differs from serial")
					}
				})
				if err != nil {
					t.Fatalf("%v P=%d %s: %v", method, n, name, err)
				}
			}
		}
	}
}

// TestParallelConvergenceFlag: the converged flag propagates.
func TestParallelConvergenceFlag(t *testing.T) {
	w := dsim.NewWorld(dsim.Config{NProcs: 2, Seed: 5})
	if err := w.Run(func(p pgas.Proc) {
		res, err := scf.Run(p, scf.RunConfig{Sys: testSys, Method: scf.MethodScioto, MaxIter: 40})
		if err != nil {
			panic(err)
		}
		if !res.SCF.Converged {
			panic("parallel SCF did not converge")
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestCounterHotspotCharged: on dsim, the counter method's Fock build time
// should exceed Scioto's at moderate P because of counter and accumulate
// hot spots plus locality-oblivious placement.
func TestMethodsBothCompleteAtP8(t *testing.T) {
	for _, method := range []scf.Method{scf.MethodCounter, scf.MethodScioto} {
		w := dsim.NewWorld(dsim.Config{NProcs: 8, Seed: 5})
		if err := w.Run(func(p pgas.Proc) {
			res, err := scf.Run(p, scf.RunConfig{Sys: testSys, Method: method, MaxIter: 4})
			if err != nil {
				panic(err)
			}
			if res.SCF.Iterations != 4 {
				panic("wrong iteration count")
			}
		}); err != nil {
			t.Fatalf("%v: %v", method, err)
		}
	}
}

// TestFockBuildFetchesEachDensityBlockOnce is the host-independent form of
// the benchmark's pgas.get_n and pgas.ops_per_task rows. In a two-iteration
// run on four ranks, with either load-balancing method, a rank fetches a
// density block at most once per Fock build (all of a build's reads fall
// between two barriers), it does fetch again in the second build, whose
// density is new, and it completes at most one fetch window per task.
func TestFockBuildFetchesEachDensityBlockOnce(t *testing.T) {
	const n, iters = 4, 2
	sys := scf.SystemConfig{NAtoms: 24, BlockSize: 4, Seed: 7}
	const nblocks, blockBytes = 6 * 6, 4 * 4 * pgas.F64Bytes
	for _, method := range []scf.Method{scf.MethodCounter, scf.MethodScioto} {
		var mu sync.Mutex
		windows, fetched := 0, 0
		err := dsim.NewWorld(dsim.Config{NProcs: n, Seed: 5}).Run(func(bare pgas.Proc) {
			p := apptest.NewOpLog(bare)
			res, err := scf.Run(p, scf.RunConfig{Sys: sys, Method: method, MaxIter: iters, ConvTol: 1e-13, TC: core.Config{ChunkSize: 2}})
			if err != nil {
				panic(err)
			}
			dSeg := p.DataSegs[0] // Run allocates the density array first
			myWindows, myFetched, builds := 0, 0, 0
			start, pending := 0, false
			for i, op := range p.Ops {
				switch {
				case op.Name == "NbGet" && op.Seg == dSeg:
					pending = true
				case op.Name == "Flush" && pending:
					myWindows++
					pending = false
				case op.Name == "Barrier":
					total := 0
					for seq, k := range apptest.BlockFetches(p.Ops[start:i], dSeg, blockBytes, n, nblocks) {
						if k > 1 {
							panic(fmt.Sprintf("rank %d fetched density block %d %d times between two barriers", p.Rank(), seq, k))
						}
						total += k
					}
					if total > 0 {
						builds++
					}
					myFetched += total
					start = i
				}
			}
			if builds != iters {
				panic(fmt.Sprintf("rank %d fetched density blocks in %d builds, want %d", p.Rank(), builds, iters))
			}
			if method == scf.MethodScioto && int64(myWindows) > res.TaskStats.TasksExecuted {
				panic(fmt.Sprintf("rank %d completed %d fetch windows for %d tasks", p.Rank(), myWindows, res.TaskStats.TasksExecuted))
			}
			mu.Lock()
			windows += myWindows
			fetched += myFetched
			mu.Unlock()
		})
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		if windows > iters*nblocks {
			t.Errorf("%v: %d fetch windows for %d tasks", method, windows, iters*nblocks)
		}
		t.Logf("%v: %d density blocks fetched in %d windows by %d ranks over %d builds of %d tasks", method, fetched, windows, n, iters, nblocks)
	}
}
