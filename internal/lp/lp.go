// Package lp is a self-contained linear programming solver: a dense
// two-phase primal simplex with Bland's anti-cycling rule. It exists
// because the paper's Algorithm 3 solves LP (6) over auxiliary graphs and
// its phase 1 cites an LP-rounding algorithm [9]; the repository is
// stdlib-only, so the solver is hand-rolled.
//
// The solver targets the moderate, well-scaled LPs arising from flow
// formulations (thousands of variables at most). It is exact up to float64
// tolerances; callers needing exactness (ratio tests) verify candidate
// cycles with integer arithmetic after extraction.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Op is a constraint relation.
type Op int

const (
	LE Op = iota // ≤
	GE           // ≥
	EQ           // =
)

func (o Op) String() string {
	switch o {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	}
	return "?"
}

// Status reports the outcome of Solve.
type Status int

const (
	Optimal Status = iota
	Infeasible
	Unbounded
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	}
	return "?"
}

// ErrInfeasible and ErrUnbounded are returned by Solve.
var (
	ErrInfeasible = errors.New("lp: infeasible")
	ErrUnbounded  = errors.New("lp: unbounded")
	ErrNoProgress = errors.New("lp: iteration limit reached")
)

// Coef is one nonzero coefficient of a constraint row.
type Coef struct {
	Var int
	Val float64
}

type row struct {
	coefs []Coef
	op    Op
	rhs   float64
}

// Problem is a linear program: minimize objᵀx subject to the added rows
// and x ≥ 0 for every variable. Upper bounds are expressed as rows
// (AddBound is a convenience). Maximization is minimization of −obj by the
// caller.
type Problem struct {
	numVars int
	obj     []float64
	rows    []row
}

// NewProblem creates a problem with n nonnegative variables and zero
// objective.
func NewProblem(n int) *Problem {
	return &Problem{numVars: n, obj: make([]float64, n)}
}

// SetObjective sets the objective coefficient of variable j.
func (p *Problem) SetObjective(j int, c float64) {
	p.check(j)
	p.obj[j] = c
}

// AddRow adds the constraint Σ coefs (op) rhs.
func (p *Problem) AddRow(coefs []Coef, op Op, rhs float64) {
	for _, c := range coefs {
		p.check(c.Var)
	}
	p.rows = append(p.rows, row{coefs: append([]Coef(nil), coefs...), op: op, rhs: rhs})
}

// AddBound adds x_j ≤ ub as a row.
func (p *Problem) AddBound(j int, ub float64) {
	p.AddRow([]Coef{{j, 1}}, LE, ub)
}

func (p *Problem) check(j int) {
	if j < 0 || j >= p.numVars {
		//lint:allow nopanic index-range invariant, same contract as slice indexing
		panic(fmt.Sprintf("lp: variable %d out of range [0,%d)", j, p.numVars))
	}
}

// Solution is the result of Solve.
type Solution struct {
	Status Status
	// X holds structural variable values when Status == Optimal.
	X []float64
	// Obj is the optimal objective value when Status == Optimal.
	Obj float64
}

const eps = 1e-9

// Solve runs two-phase primal simplex. It returns ErrInfeasible or
// ErrUnbounded with a matching Status, and ErrNoProgress if the iteration
// cap is exhausted (indicates numerical trouble on a pathological input).
func (p *Problem) Solve() (Solution, error) {
	m := len(p.rows)
	// Column layout: [0,numVars) structural, then one slack/surplus per
	// LE/GE row, then one artificial per row needing it.
	nStruct := p.numVars
	slackCol := make([]int, m) // -1 if none
	nCols := nStruct
	for i, r := range p.rows {
		if r.op == LE || r.op == GE {
			slackCol[i] = nCols
			nCols++
		} else {
			slackCol[i] = -1
		}
	}
	artCol := make([]int, m)
	artStart := nCols
	// Normalize rhs sign first to decide artificials: after sign flip, a LE
	// row with slack +1 gives a ready basis column; GE/EQ need artificials,
	// and LE rows that got flipped to have negative slack do too.
	type nrow struct {
		a   []float64
		rhs float64
	}
	tab := make([]nrow, m)
	basis := make([]int, m)
	needArt := make([]bool, m)
	for i, r := range p.rows {
		a := make([]float64, nCols) // artificial columns appended later
		for _, c := range r.coefs {
			a[c.Var] += c.Val
		}
		rhs := r.rhs
		sign := 1.0
		if rhs < 0 {
			sign = -1
			rhs = -rhs
			for j := range a {
				a[j] = -a[j]
			}
		}
		switch r.op {
		case LE:
			a[slackCol[i]] = sign // +1 normally, −1 if row was flipped
		case GE:
			a[slackCol[i]] = -sign
		}
		// Basis candidate: a slack with coefficient +1.
		if slackCol[i] >= 0 && a[slackCol[i]] == 1 {
			basis[i] = slackCol[i]
		} else {
			needArt[i] = true
		}
		tab[i] = nrow{a: a, rhs: rhs}
	}
	for i := range p.rows {
		if needArt[i] {
			artCol[i] = nCols
			nCols++
		} else {
			artCol[i] = -1
		}
	}
	// Extend rows with artificial columns.
	A := make([][]float64, m)
	b := make([]float64, m)
	for i := range tab {
		A[i] = make([]float64, nCols)
		copy(A[i], tab[i].a)
		if artCol[i] >= 0 {
			A[i][artCol[i]] = 1
			basis[i] = artCol[i]
		}
		b[i] = tab[i].rhs
	}

	// Phase 1: minimize sum of artificials.
	if artStart < nCols {
		c1 := make([]float64, nCols)
		for i := range p.rows {
			if artCol[i] >= 0 {
				c1[artCol[i]] = 1
			}
		}
		val, err := simplexCore(A, b, c1, basis, nCols)
		if err != nil {
			return Solution{Status: Infeasible}, err
		}
		if val > 1e-7 {
			return Solution{Status: Infeasible}, ErrInfeasible
		}
		// Drive remaining artificials out of the basis where possible.
		for i := range basis {
			if basis[i] < artStart {
				continue
			}
			pivoted := false
			for j := 0; j < artStart; j++ {
				if math.Abs(A[i][j]) > 1e-7 {
					pivot(A, b, i, j)
					basis[i] = j
					pivoted = true
					break
				}
			}
			if !pivoted {
				// Row is redundant (all-zero over structurals): keep the
				// artificial basic at value 0 with a consistent unit column.
				for j := range A[i] {
					A[i][j] = 0
				}
				A[i][basis[i]] = 1
				b[i] = 0
			}
		}
		// Forbid artificials from re-entering: zero their columns.
		for i := range A {
			for j := artStart; j < nCols; j++ {
				if basis[i] == j {
					continue
				}
				A[i][j] = 0
			}
		}
	}

	// Phase 2: original objective over structural + slack columns.
	// Artificial columns never re-enter (simplexCore only considers columns
	// below allowCols = artStart); any still-basic artificial sits at value
	// 0 on a redundant row, so costing it 0 keeps the objective exact.
	c2 := make([]float64, nCols)
	copy(c2, p.obj)
	val, err := simplexCore(A, b, c2, basis, artStart)
	if err != nil {
		if errors.Is(err, ErrUnbounded) {
			return Solution{Status: Unbounded}, err
		}
		return Solution{}, err
	}
	x := make([]float64, p.numVars)
	for i, bj := range basis {
		if bj < p.numVars {
			x[bj] = b[i]
		}
	}
	return Solution{Status: Optimal, X: x, Obj: val}, nil
}

// simplexCore runs primal simplex on the current tableau, minimizing c over
// columns [0, allowCols). basis must index a feasible basis (b ≥ 0). It
// mutates A, b, basis in place and returns the optimal objective value.
func simplexCore(A [][]float64, b []float64, c []float64, basis []int, allowCols int) (float64, error) {
	m := len(A)
	maxIter := 8000 + 40*(m+allowCols)
	for iter := 0; iter < maxIter; iter++ {
		// Reduced costs: r_j = c_j − c_Bᵀ B⁻¹ A_j. Tableau is kept in
		// B⁻¹A form, so r_j = c_j − Σ_i c_basis[i]·A[i][j].
		entering := -1
		for j := 0; j < allowCols; j++ {
			inBasis := false
			for _, bj := range basis {
				if bj == j {
					inBasis = true
					break
				}
			}
			if inBasis {
				continue
			}
			r := c[j]
			for i := 0; i < m; i++ {
				cb := c[basis[i]]
				if cb != 0 && A[i][j] != 0 {
					r -= cb * A[i][j]
				}
			}
			if r < -eps {
				entering = j // Bland: first improving column
				break
			}
		}
		if entering < 0 {
			// Optimal: compute objective.
			var obj float64
			for i := 0; i < m; i++ {
				if cb := c[basis[i]]; cb != 0 {
					obj += cb * b[i]
				}
			}
			return obj, nil
		}
		// Ratio test with Bland tie-break on smallest basis index.
		leave := -1
		var best float64
		for i := 0; i < m; i++ {
			if A[i][entering] > eps {
				ratio := b[i] / A[i][entering]
				if leave < 0 || ratio < best-eps ||
					(math.Abs(ratio-best) <= eps && basis[i] < basis[leave]) {
					leave = i
					best = ratio
				}
			}
		}
		if leave < 0 {
			return 0, ErrUnbounded
		}
		pivot(A, b, leave, entering)
		basis[leave] = entering
	}
	return 0, ErrNoProgress
}

// pivot performs a Gauss–Jordan pivot on (row, col).
func pivot(A [][]float64, b []float64, row, col int) {
	pv := A[row][col]
	for j := range A[row] {
		A[row][j] /= pv
	}
	b[row] /= pv
	for i := range A {
		if i == row {
			continue
		}
		f := A[i][col]
		if f == 0 {
			continue
		}
		for j := range A[i] {
			A[i][j] -= f * A[row][j]
		}
		b[i] -= f * b[row]
	}
}
