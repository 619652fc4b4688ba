package linalg_test

import (
	"testing"

	"scioto/internal/linalg"
	"scioto/internal/scf"
)

// TestSolveOrtho solves the SCF benchmark's first generalized eigenproblem,
// H C = S C e on a 48-atom system, through InvSqrtSym and SolveOrtho: the
// residual F C − S C e and the S-orthonormality CᵀSC = I must both hold to
// 1e-10 in the Frobenius norm.
func TestSolveOrtho(t *testing.T) {
	sys := scf.NewSystem(scf.SystemConfig{NAtoms: 48, BlockSize: 4, Seed: 12})
	f, s := sys.H, sys.S
	w, c := linalg.SolveOrtho(f, linalg.InvSqrtSym(s))
	sce := linalg.MatMul(s, c)
	for i := 0; i < sce.Rows; i++ {
		for j := 0; j < sce.Cols; j++ {
			sce.Set(i, j, sce.At(i, j)*w[j])
		}
	}
	res := linalg.MatMul(f, c)
	for i := range res.Data {
		res.Data[i] -= sce.Data[i]
	}
	if r := res.FrobeniusNorm(); r > 1e-10 {
		t.Errorf("‖FC − SCe‖ = %v", r)
	}
	ctsc := linalg.MatMul(linalg.MatMul(c.T(), s), c)
	for i := 0; i < ctsc.Rows; i++ {
		ctsc.Set(i, i, ctsc.At(i, i)-1)
	}
	if r := ctsc.FrobeniusNorm(); r > 1e-10 {
		t.Errorf("‖CᵀSC − I‖ = %v", r)
	}
}
