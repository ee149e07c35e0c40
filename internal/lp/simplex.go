// Package lp implements a small, dependency-free linear-programming solver:
// a dense two-phase primal simplex with Bland anti-cycling. It replaces the
// Gurobi dependency of the original paper for the path-based
// multi-commodity-flow LPs (§H of the paper), which at the scales this
// repository runs are dense-tableau friendly (a few thousand variables).
// Its one production caller is mcf's exact path-LP backend (mcf.Exact);
// the edge-based MCF LP and the transportation-LP bound that also use it
// are test oracles in mcf's and tub's test files.
//
// The solver maximizes c·x subject to linear constraints and x ≥ 0.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Sense is the relation of a constraint row.
type Sense int

// Constraint senses.
const (
	LE Sense = iota // ≤
	GE              // ≥
	EQ              // =
)

func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	}
	return "?"
}

// Term is one coefficient of a sparse constraint row.
type Term struct {
	Var  int
	Coef float64
}

type row struct {
	terms []Term
	sense Sense
	rhs   float64
}

// Problem is an LP under construction. The zero value is unusable; call
// NewProblem.
type Problem struct {
	nv   int
	obj  []float64
	rows []row
}

// NewProblem returns a maximization problem over nvars non-negative
// variables with zero objective.
func NewProblem(nvars int) *Problem {
	return &Problem{nv: nvars, obj: make([]float64, nvars)}
}

// SetObjective sets the objective coefficient of variable j.
func (p *Problem) SetObjective(j int, c float64) {
	p.obj[j] = c
}

// AddConstraint appends the constraint Σ terms  sense  rhs.
func (p *Problem) AddConstraint(terms []Term, sense Sense, rhs float64) {
	cp := make([]Term, len(terms))
	copy(cp, terms)
	p.rows = append(p.rows, row{terms: cp, sense: sense, rhs: rhs})
}

// Solver errors.
var (
	ErrInfeasible = errors.New("lp: infeasible")
	ErrUnbounded  = errors.New("lp: unbounded")
	ErrIterations = errors.New("lp: iteration limit exceeded")
)

const eps = 1e-9

// Solution holds the optimum of a Problem.
type Solution struct {
	X   []float64 // optimal variable values
	Obj float64   // optimal objective value
}

// Solve runs two-phase primal simplex and returns the optimum.
func (p *Problem) Solve() (*Solution, error) {
	m := len(p.rows)
	n := p.nv

	// Count auxiliary columns.
	nSlack, nArt := 0, 0
	for _, r := range p.rows {
		s, rhs := r.sense, r.rhs
		if rhs < 0 { // flip row so rhs >= 0
			switch s {
			case LE:
				s = GE
			case GE:
				s = LE
			}
		}
		switch s {
		case LE:
			nSlack++
		case GE:
			nSlack++
			nArt++
		case EQ:
			nArt++
		}
	}

	total := n + nSlack + nArt
	// Tableau: m rows of total+1 (last column = rhs).
	t := make([][]float64, m)
	for i := range t {
		t[i] = make([]float64, total+1)
	}
	basis := make([]int, m)
	slackCol, artCol := n, n+nSlack
	artCols := make([]int, 0, nArt)

	for i, r := range p.rows {
		sense, rhs := r.sense, r.rhs
		sign := 1.0
		if rhs < 0 {
			sign = -1
			rhs = -rhs
			switch sense {
			case LE:
				sense = GE
			case GE:
				sense = LE
			}
		}
		for _, tm := range r.terms {
			if tm.Var < 0 || tm.Var >= n {
				return nil, fmt.Errorf("lp: constraint %d references variable %d of %d", i, tm.Var, n)
			}
			t[i][tm.Var] += sign * tm.Coef
		}
		t[i][total] = rhs
		switch sense {
		case LE:
			t[i][slackCol] = 1
			basis[i] = slackCol
			slackCol++
		case GE:
			t[i][slackCol] = -1
			slackCol++
			t[i][artCol] = 1
			basis[i] = artCol
			artCols = append(artCols, artCol)
			artCol++
		case EQ:
			t[i][artCol] = 1
			basis[i] = artCol
			artCols = append(artCols, artCol)
			artCol++
		}
	}

	// Phase 1: minimize sum of artificials, i.e. maximize -Σa.
	if nArt > 0 {
		c1 := make([]float64, total)
		for _, j := range artCols {
			c1[j] = -1
		}
		obj, err := simplex(t, basis, c1, total)
		if err != nil {
			return nil, err
		}
		if obj < -1e-7 {
			return nil, ErrInfeasible
		}
		// Drive any artificial variables out of the basis.
		for i := 0; i < m; i++ {
			if basis[i] < n+nSlack {
				continue
			}
			pivoted := false
			for j := 0; j < n+nSlack; j++ {
				if math.Abs(t[i][j]) > eps {
					pivot(t, basis, i, j)
					pivoted = true
					break
				}
			}
			if !pivoted {
				// Row is all zeros in original columns: redundant
				// constraint; leave the (zero-valued) artificial basic.
				t[i][total] = 0
			}
		}
		// Zero out artificial columns so they can never re-enter.
		for i := 0; i < m; i++ {
			for _, j := range artCols {
				if basis[i] != j {
					t[i][j] = 0
				}
			}
		}
	}

	// Phase 2: original objective.
	c2 := make([]float64, total)
	copy(c2, p.obj)
	obj, err := simplex(t, basis, c2, total)
	if err != nil {
		return nil, err
	}
	x := make([]float64, n)
	for i, b := range basis {
		if b < n {
			x[b] = t[i][total]
		}
	}
	return &Solution{X: x, Obj: obj}, nil
}

// simplex maximizes c·x over the tableau in place, returning the objective
// value. basis maps each row to its basic column. total is the number of
// columns excluding the rhs.
func simplex(t [][]float64, basis []int, c []float64, total int) (float64, error) {
	m := len(t)
	// Reduced cost row: z_j - c_j maintained implicitly; recompute reduced
	// costs each iteration from basis (stable for our sizes).
	red := make([]float64, total)
	y := make([]float64, m) // c_B

	maxIter := 8000 + 60*(m+total)
	blandAfter := maxIter / 2
	for iter := 0; iter < maxIter; iter++ {
		for i := 0; i < m; i++ {
			y[i] = c[basis[i]]
		}
		// reduced[j] = c[j] - y·col_j
		entering := -1
		best := eps
		for j := 0; j < total; j++ {
			r := c[j]
			for i := 0; i < m; i++ {
				if yi := y[i]; yi != 0 {
					r -= yi * t[i][j]
				}
			}
			red[j] = r
			if iter < blandAfter {
				if r > best {
					best = r
					entering = j
				}
			} else if r > eps { // Bland: first improving column
				entering = j
				break
			}
		}
		if entering < 0 {
			// Optimal.
			obj := 0.0
			for i := 0; i < m; i++ {
				obj += c[basis[i]] * t[i][total]
			}
			return obj, nil
		}
		// Ratio test.
		leave := -1
		bestRatio := math.Inf(1)
		for i := 0; i < m; i++ {
			a := t[i][entering]
			if a > eps {
				ratio := t[i][total] / a
				if ratio < bestRatio-eps || (ratio < bestRatio+eps && (leave < 0 || basis[i] < basis[leave])) {
					bestRatio = ratio
					leave = i
				}
			}
		}
		if leave < 0 {
			return 0, ErrUnbounded
		}
		pivot(t, basis, leave, entering)
	}
	return 0, ErrIterations
}

// pivot makes column j basic in row r.
func pivot(t [][]float64, basis []int, r, j int) {
	m := len(t)
	cols := len(t[r])
	pv := t[r][j]
	inv := 1 / pv
	rowR := t[r]
	for k := 0; k < cols; k++ {
		rowR[k] *= inv
	}
	rowR[j] = 1
	for i := 0; i < m; i++ {
		if i == r {
			continue
		}
		f := t[i][j]
		if f == 0 {
			continue
		}
		ri := t[i]
		for k := 0; k < cols; k++ {
			ri[k] -= f * rowR[k]
		}
		ri[j] = 0
	}
	basis[r] = j
}
