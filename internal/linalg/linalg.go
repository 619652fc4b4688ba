// Package linalg provides the small dense linear-algebra kernel set the SCF
// application needs: row-major matrices, multiplication, symmetric
// eigendecomposition (Householder tridiagonalisation + implicit-shift QL),
// the overlap's inverse square root and the generalized eigensolve built on
// it, and norms. Everything is written from scratch on float64 slices — the
// reproduction's stand-in for the LAPACK routines the original
// quantum-chemistry codes call.
package linalg

import (
	"fmt"
	"math"
)

// Mat is a dense row-major matrix.
type Mat struct {
	Rows, Cols int
	Data       []float64
}

// NewMat allocates a zero rows x cols matrix.
func NewMat(rows, cols int) *Mat {
	return &Mat{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice wraps data (row-major, length rows*cols) without copying.
func FromSlice(rows, cols int, data []float64) *Mat {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("linalg: FromSlice %dx%d needs %d elements, got %d", rows, cols, rows*cols, len(data)))
	}
	return &Mat{Rows: rows, Cols: cols, Data: data}
}

// At returns element (i, j).
func (m *Mat) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Mat) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy.
func (m *Mat) Clone() *Mat {
	c := NewMat(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// T returns the transpose.
func (m *Mat) T() *Mat {
	t := NewMat(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// MatMul returns a*b.
func MatMul(a, b *Mat) *Mat {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: MatMul %dx%d by %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	c := NewMat(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for k := 0; k < a.Cols; k++ {
			aik := a.At(i, k)
			if aik == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			crow := c.Data[i*c.Cols : (i+1)*c.Cols]
			for j := range brow {
				crow[j] += aik * brow[j]
			}
		}
	}
	return c
}

// GemmBlock computes C += A*B for row-major blocks: A is m x k, B is k x n,
// C is m x n. It is the inner kernel of the TCE contraction and the matmul
// example.
func GemmBlock(c, a, b []float64, m, k, n int) {
	if len(a) < m*k || len(b) < k*n || len(c) < m*n {
		panic("linalg: GemmBlock slice too short")
	}
	for i := 0; i < m; i++ {
		for kk := 0; kk < k; kk++ {
			aik := a[i*k+kk]
			if aik == 0 {
				continue
			}
			brow := b[kk*n : kk*n+n]
			crow := c[i*n : i*n+n]
			for j := range brow {
				crow[j] += aik * brow[j]
			}
		}
	}
}

// MaxAbsDiff returns the largest absolute element-wise difference.
func MaxAbsDiff(a, b *Mat) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("linalg: MaxAbsDiff shape mismatch")
	}
	max := 0.0
	for i := range a.Data {
		if d := math.Abs(a.Data[i] - b.Data[i]); d > max {
			max = d
		}
	}
	return max
}

// FrobeniusNorm returns the Frobenius norm.
func (m *Mat) FrobeniusNorm() float64 {
	s := 0.0
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// IsSymmetric reports whether the matrix is symmetric to within tol.
func (m *Mat) IsSymmetric(tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		for j := i + 1; j < m.Cols; j++ {
			if math.Abs(m.At(i, j)-m.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}

// EigenSym computes the eigendecomposition of a symmetric matrix by
// Householder reduction to tridiagonal form followed by the implicit-shift
// QL iteration (EISPACK's tred2 and tql2, in the form JAMA gives them). It
// returns the eigenvalues in ascending order and the matrix of corresponding
// eigenvectors as columns (a = v * diag(w) * vᵀ). The input is not
// modified.
//
// The two routines work on z = Vᵀ, row-major: row j of z is column j of
// the V the published algorithm updates. Every O(n³) loop of both walks
// one column of V, so on z each is a pass along a contiguous row. Because
// a is symmetric, its copy is already the transpose the reduction starts
// from.
func EigenSym(a *Mat) (w []float64, v *Mat) {
	n := a.Rows
	if n != a.Cols {
		panic("linalg: EigenSym needs a square matrix")
	}
	z := make([]float64, n*n)
	copy(z, a.Data)
	d, e := make([]float64, n), make([]float64, n)
	tred2(z, d, e)
	tql2(z, d, e)

	// Sort ascending, transposing eigenvectors from rows of z to columns.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 1; i < n; i++ { // insertion sort: n is small for SCF systems
		for j := i; j > 0 && d[idx[j]] < d[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	w = make([]float64, n)
	v = NewMat(n, n)
	for col, src := range idx {
		w[col] = d[src]
		for row, x := range z[src*n : (src+1)*n] {
			v.Data[row*n+col] = x
		}
	}
	return w, v
}

// tred2 reduces the symmetric matrix held in z (n x n, n = len(d)) to
// tridiagonal form by orthogonal similarity (Householder), leaving the
// diagonal in d, the subdiagonal in e[1:], and the accumulated transform in
// z, transposed (see EigenSym).
func tred2(z, d, e []float64) {
	n := len(d)
	for j := 0; j < n; j++ {
		d[j] = z[j*n+n-1]
	}
	for i := n - 1; i > 0; i-- {
		// Scale the row to avoid under/overflow.
		scale, h := 0.0, 0.0
		for _, x := range d[:i] {
			scale += math.Abs(x)
		}
		if scale == 0 {
			// Row already reduced: skip the reflection.
			e[i] = d[i-1]
			for j := 0; j < i; j++ {
				d[j] = z[j*n+i-1]
				z[j*n+i] = 0
				z[i*n+j] = 0
			}
			d[i] = 0
			continue
		}
		// Generate the Householder vector.
		for k := range d[:i] {
			d[k] /= scale
			h += d[k] * d[k]
		}
		f := d[i-1]
		g := math.Sqrt(h)
		if f > 0 {
			g = -g
		}
		e[i] = scale * g
		h -= f * g
		d[i-1] = f - g
		clear(e[:i])
		// Apply the similarity transformation to the remaining columns.
		for j := 0; j < i; j++ {
			f = d[j]
			zj := z[j*n : j*n+i]
			z[i*n+j] = f
			g = e[j] + zj[j]*f
			for k := j + 1; k < i; k++ {
				g += zj[k] * d[k]
				e[k] += zj[k] * f
			}
			e[j] = g
		}
		f = 0
		for j := range e[:i] {
			e[j] /= h
			f += e[j] * d[j]
		}
		hh := f / (h + h)
		for j := range e[:i] {
			e[j] -= hh * d[j]
		}
		for j := 0; j < i; j++ {
			f, g = d[j], e[j]
			zj := z[j*n : j*n+i]
			for k := j; k < i; k++ {
				zj[k] -= f*e[k] + g*d[k]
			}
			d[j] = zj[i-1]
			z[j*n+i] = 0
		}
		d[i] = h
	}
	// Accumulate the transformations.
	for i := 0; i < n-1; i++ {
		z[i*n+n-1] = z[i*n+i]
		z[i*n+i] = 1
		zi1 := z[(i+1)*n : (i+1)*n+i+1]
		if h := d[i+1]; h != 0 {
			for k, x := range zi1 {
				d[k] = x / h
			}
			for j := 0; j <= i; j++ {
				zj := z[j*n : j*n+i+1]
				g := 0.0
				for k, x := range zi1 {
					g += x * zj[k]
				}
				for k := range zj {
					zj[k] -= g * d[k]
				}
			}
		}
		clear(zi1)
	}
	for j := 0; j < n; j++ {
		d[j] = z[j*n+n-1]
		z[j*n+n-1] = 0
	}
	z[n*n-1] = 1
	e[0] = 0
}

// tql2 diagonalizes the tridiagonal matrix tred2 left in d and e by the QL
// method with implicit shifts, applying each rotation to the transform in z
// (transposed: rotations combine rows). On return d holds the eigenvalues,
// unsorted, and row j of z the eigenvector of d[j].
func tql2(z, d, e []float64) {
	n := len(d)
	copy(e, e[1:])
	e[n-1] = 0
	const eps = 0x1p-52
	f, tst1 := 0.0, 0.0
	for l := 0; l < n; l++ {
		// Find a negligible subdiagonal element; e[n-1] = 0 ends the scan.
		tst1 = math.Max(tst1, math.Abs(d[l])+math.Abs(e[l]))
		m := l
		for m < n && math.Abs(e[m]) > eps*tst1 {
			m++
		}
		// If m == l, d[l] is already an eigenvalue; otherwise iterate
		// until e[l] is negligible.
		for m > l {
			// Implicit shift.
			g := d[l]
			p := (d[l+1] - g) / (2 * e[l])
			r := math.Hypot(p, 1)
			if p < 0 {
				r = -r
			}
			d[l] = e[l] / (p + r)
			d[l+1] = e[l] * (p + r)
			dl1 := d[l+1]
			h := g - d[l]
			for i := l + 2; i < n; i++ {
				d[i] -= h
			}
			f += h
			// Implicit QL transformation.
			p = d[m]
			c, c2, c3 := 1.0, 1.0, 1.0
			el1 := e[l+1]
			s, s2 := 0.0, 0.0
			for i := m - 1; i >= l; i-- {
				c3, c2, s2 = c2, c, s
				g = c * e[i]
				h = c * p
				r = math.Hypot(p, e[i])
				e[i+1] = s * r
				s = e[i] / r
				c = p / r
				p = c*d[i] - s*g
				d[i+1] = h + s*(c*g+s*d[i])
				zi, zi1 := z[i*n:(i+1)*n], z[(i+1)*n:(i+2)*n]
				for k, x := range zi {
					y := zi1[k]
					zi1[k] = s*x + c*y
					zi[k] = c*x - s*y
				}
			}
			p = -s * s2 * c3 * el1 * e[l] / dl1
			e[l] = s * p
			d[l] = c * p
			if math.Abs(e[l]) <= eps*tst1 {
				break
			}
		}
		d[l] += f
		e[l] = 0
	}
}

// SolveLinear solves the square system a x = b by Gaussian elimination with
// partial pivoting. a and b are not modified. It returns false when the
// system is singular to working precision.
func SolveLinear(a *Mat, b []float64) ([]float64, bool) {
	n := a.Rows
	if a.Cols != n || len(b) != n {
		panic("linalg: SolveLinear needs a square system")
	}
	m := a.Clone()
	x := make([]float64, n)
	copy(x, b)
	for col := 0; col < n; col++ {
		// Partial pivot.
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m.At(r, col)) > math.Abs(m.At(piv, col)) {
				piv = r
			}
		}
		if math.Abs(m.At(piv, col)) < 1e-14 {
			return nil, false
		}
		if piv != col {
			for c := 0; c < n; c++ {
				v1, v2 := m.At(col, c), m.At(piv, c)
				m.Set(col, c, v2)
				m.Set(piv, c, v1)
			}
			x[col], x[piv] = x[piv], x[col]
		}
		inv := 1 / m.At(col, col)
		for r := col + 1; r < n; r++ {
			f := m.At(r, col) * inv
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				m.Set(r, c, m.At(r, c)-f*m.At(col, c))
			}
			x[r] -= f * x[col]
		}
	}
	for r := n - 1; r >= 0; r-- {
		sum := x[r]
		for c := r + 1; c < n; c++ {
			sum -= m.At(r, c) * x[c]
		}
		x[r] = sum / m.At(r, r)
	}
	return x, true
}

// InvSqrtSym returns X = S^(-1/2) of a symmetric positive-definite overlap
// matrix S: with S = U diag(σ) Uᵀ, X = U diag(σ^-1/2) Uᵀ, itself symmetric.
// It panics when S is singular to working precision.
func InvSqrtSym(s *Mat) *Mat {
	sw, su := EigenSym(s)
	for k, sk := range sw {
		if sk <= 1e-12 {
			panic("linalg: overlap matrix is singular")
		}
		sw[k] = 1 / math.Sqrt(sk)
	}
	n := s.Rows
	x := NewMat(n, n)
	for i := 0; i < n; i++ {
		ui := su.Data[i*n : (i+1)*n]
		for j := i; j < n; j++ {
			uj := su.Data[j*n : (j+1)*n]
			sum := 0.0
			for k, isk := range sw {
				sum += ui[k] * uj[k] * isk
			}
			x.Set(i, j, sum)
			x.Set(j, i, sum)
		}
	}
	return x
}

// SolveOrtho solves the generalized symmetric eigenproblem F C = S C e by
// symmetric (Löwdin) orthogonalization, given X = InvSqrtSym(S): it
// diagonalizes X F X and returns the eigenvalues and C = X C'. The SCF
// application builds X once per system, since its basis, and so S, is
// fixed.
func SolveOrtho(f, x *Mat) (w []float64, c *Mat) {
	w, cp := EigenSym(MatMul(MatMul(x, f), x))
	return w, MatMul(x, cp)
}
