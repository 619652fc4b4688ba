package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomSym(rng *rand.Rand, n int) *Mat {
	m := NewMat(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	return m
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randomSym(rng, 5)
	id := NewMat(5, 5)
	for i := 0; i < 5; i++ {
		id.Set(i, i, 1)
	}
	if d := MaxAbsDiff(MatMul(a, id), a); d != 0 {
		t.Errorf("a*I differs from a by %v", d)
	}
	if d := MaxAbsDiff(MatMul(id, a), a); d != 0 {
		t.Errorf("I*a differs from a by %v", d)
	}
}

func TestMatMulKnown(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	c := MatMul(a, b)
	want := FromSlice(2, 2, []float64{58, 64, 139, 154})
	if d := MaxAbsDiff(c, want); d != 0 {
		t.Errorf("MatMul known-answer off by %v", d)
	}
}

func TestGemmBlockMatchesMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		m, k, n := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6)
		a, b := NewMat(m, k), NewMat(k, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		for i := range b.Data {
			b.Data[i] = rng.NormFloat64()
		}
		want := MatMul(a, b)
		c := make([]float64, m*n)
		GemmBlock(c, a.Data, b.Data, m, k, n)
		if d := MaxAbsDiff(FromSlice(m, n, c), want); d > 1e-12 {
			t.Errorf("GemmBlock differs from MatMul by %v", d)
		}
		// Accumulation: doubling via a second call.
		GemmBlock(c, a.Data, b.Data, m, k, n)
		for i := range c {
			if math.Abs(c[i]-2*want.Data[i]) > 1e-12 {
				t.Fatalf("GemmBlock accumulate wrong at %d", i)
			}
		}
	}
}

func TestTransposeQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, c := 1+rng.Intn(8), 1+rng.Intn(8)
		m := NewMat(r, c)
		for i := range m.Data {
			m.Data[i] = rng.Float64()
		}
		return MaxAbsDiff(m.T().T(), m) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func identity(n int) *Mat {
	id := NewMat(n, n)
	for i := 0; i < n; i++ {
		id.Set(i, i, 1)
	}
	return id
}

// TestEigenSymReconstruction checks EigenSym's contract on random matrices
// of every size up to the SCF benchmark's and beyond, and on the inputs
// that take the reduction's special paths: rows already reduced (tred2's
// zero-scale branch), repeated eigenvalues, and an already tridiagonal
// matrix. Eigenvectors of a repeated eigenvalue are not unique, so the
// check is the residual ‖AV − VΛ‖ and VᵀV = I, never particular vectors.
func TestEigenSymReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cases := map[string]*Mat{}
	for _, n := range []int{1, 2, 3, 5, 8, 16, 48, 64} {
		cases[fmt.Sprintf("random n=%d", n)] = randomSym(rng, n)
	}
	cases["diagonal"] = FromSlice(4, 4, []float64{3, 0, 0, 0, 0, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 7})
	// Two coupled blocks with no coupling between them: the first row of
	// the second block has nothing left to reduce.
	block := NewMat(7, 7)
	for _, b := range [][2]int{{0, 3}, {3, 7}} {
		for i := b[0]; i < b[1]; i++ {
			for j := i; j < b[1]; j++ {
				v := rng.NormFloat64()
				block.Set(i, j, v)
				block.Set(j, i, v)
			}
		}
	}
	cases["block-diagonal"] = block
	cases["identity"] = identity(6)
	rankOne := identity(9)
	u := make([]float64, 9)
	for i := range u {
		u[i] = rng.NormFloat64()
	}
	for i := range u {
		for j := range u {
			rankOne.Set(i, j, rankOne.At(i, j)+u[i]*u[j])
		}
	}
	cases["identity plus rank one"] = rankOne
	tri := NewMat(10, 10)
	for i := 0; i < 10; i++ {
		tri.Set(i, i, rng.NormFloat64())
		if i > 0 {
			v := rng.NormFloat64()
			tri.Set(i, i-1, v)
			tri.Set(i-1, i, v)
		}
	}
	cases["tridiagonal"] = tri

	for name, a := range cases {
		n := a.Rows
		orig := a.Clone()
		w, v := EigenSym(a)
		if MaxAbsDiff(a, orig) != 0 {
			t.Errorf("%s: input modified", name)
		}
		for i := 1; i < n; i++ {
			if w[i] < w[i-1] {
				t.Errorf("%s: eigenvalues not ascending: %v", name, w)
				break
			}
		}
		// ‖AV − VΛ‖, relative to ‖A‖ (at least 1).
		av, vl := MatMul(a, v), v.Clone()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				vl.Set(i, j, v.At(i, j)*w[j])
			}
		}
		if r := MaxAbsDiff(av, vl) / math.Max(1, a.FrobeniusNorm()); r > 1e-13 {
			t.Errorf("%s: relative residual ‖AV − VΛ‖ = %v", name, r)
		}
		if d := MaxAbsDiff(MatMul(v.T(), v), identity(n)); d > 1e-12 {
			t.Errorf("%s: ‖VᵀV − I‖ = %v", name, d)
		}
		// a ≈ v diag(w) vᵀ
		if d := MaxAbsDiff(MatMul(vl, v.T()), a); d > 1e-9 {
			t.Errorf("%s: reconstruction error %v", name, d)
		}
	}
}

func TestEigenSymKnown(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 1 and 3.
	a := FromSlice(2, 2, []float64{2, 1, 1, 2})
	w, _ := EigenSym(a)
	if math.Abs(w[0]-1) > 1e-12 || math.Abs(w[1]-3) > 1e-12 {
		t.Errorf("eigenvalues = %v, want [1 3]", w)
	}
}

func TestEigenSymDiagonal(t *testing.T) {
	a := FromSlice(3, 3, []float64{5, 0, 0, 0, -2, 0, 0, 0, 1})
	w, _ := EigenSym(a)
	want := []float64{-2, 1, 5}
	for i := range want {
		if math.Abs(w[i]-want[i]) > 1e-12 {
			t.Errorf("w = %v, want %v", w, want)
		}
	}
}

func TestEigenTraceInvariantQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		a := randomSym(rng, n)
		w, _ := EigenSym(a)
		tr, sum := 0.0, 0.0
		for i := 0; i < n; i++ {
			tr += a.At(i, i)
			sum += w[i]
		}
		return math.Abs(tr-sum) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestIsSymmetric(t *testing.T) {
	a := FromSlice(2, 2, []float64{1, 2, 2, 1})
	if !a.IsSymmetric(0) {
		t.Error("symmetric matrix misreported")
	}
	b := FromSlice(2, 2, []float64{1, 2, 3, 1})
	if b.IsSymmetric(0.5) {
		t.Error("asymmetric matrix accepted")
	}
	c := FromSlice(1, 2, []float64{1, 2})
	if c.IsSymmetric(10) {
		t.Error("non-square matrix reported symmetric")
	}
}
