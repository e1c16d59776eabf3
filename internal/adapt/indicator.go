package adapt

import (
	"fmt"
	"math"
	"sort"

	"eul3d/internal/euler"
	"eul3d/internal/mesh"
	"eul3d/internal/smsolver"
)

// indicator computes the per-cell refinement indicator eta. The three
// kinds share one contract: eta depends only on the mesh, the solution and
// the parameters, and is computed sequentially in mesh order, so a fixed
// adaptation schedule marks identical cells at every worker count.
//
//   - "density": max undivided density difference |rho_i - rho_j| over the
//     cell's six vertex pairs. The undivided (not divided by h) difference
//     deliberately biases toward larger cells crossing a feature — the
//     classic feature-detection indicator for shock-capturing schemes.
//   - "pressure": max relative pressure difference |p_i - p_j|/(p_i + p_j),
//     the same normalized switch the JST dissipation sensor uses; picks up
//     shocks while ignoring contact discontinuities.
//   - "residual": max |R_rho(v)|/V_v over the cell's vertices, from a
//     steady-residual evaluation on a sequential engine (mesh order, one
//     worker) — the multigrid-style indicator, concentrating cells where
//     the discrete equations are least satisfied.
type indicator struct {
	kind string

	// residual kind: built lazily, rebuilt per epoch; at one worker it
	// starts no goroutines, so it needs no Close
	eng *smsolver.Solver

	pres []float64 // pressure-kind scratch
	eta  []float64
}

func newIndicator(kind string) (*indicator, error) {
	switch kind {
	case "", "density":
		return &indicator{kind: "density"}, nil
	case "pressure", "residual":
		return &indicator{kind: kind}, nil
	default:
		return nil, fmt.Errorf("adapt: unknown indicator %q (want density, pressure or residual)", kind)
	}
}

// ValidIndicator reports whether name selects a known error indicator
// ("" selects the default). It lets callers validate a request without
// building the indicator's scratch state.
func ValidIndicator(name string) bool {
	_, err := newIndicator(name)
	return err == nil
}

// tetPairs enumerates the six vertex pairs (edges) of a tet by local index.
var tetPairs = [6][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}

// compute returns the per-cell indicator on m for solution w. The returned
// slice is owned by the indicator and valid until the next compute call.
func (in *indicator) compute(m *mesh.Mesh, w []euler.State, p euler.Params) ([]float64, error) {
	nt := m.NT()
	if cap(in.eta) < nt {
		in.eta = make([]float64, nt)
	}
	eta := in.eta[:nt]

	switch in.kind {
	case "density":
		for t, tet := range m.Tets {
			max := 0.0
			for _, pr := range tetPairs {
				d := math.Abs(w[tet[pr[0]]][0] - w[tet[pr[1]]][0])
				if d > max {
					max = d
				}
			}
			eta[t] = max
		}
	case "pressure":
		nv := m.NV()
		if cap(in.pres) < nv {
			in.pres = make([]float64, nv)
		}
		pres := in.pres[:nv]
		for i := 0; i < nv; i++ {
			pres[i] = p.Gas.Pressure(w[i])
		}
		for t, tet := range m.Tets {
			max := 0.0
			for _, pr := range tetPairs {
				pi, pj := pres[tet[pr[0]]], pres[tet[pr[1]]]
				if s := pi + pj; s > 0 {
					if d := math.Abs(pi-pj) / s; d > max {
						max = d
					}
				}
			}
			eta[t] = max
		}
	case "residual":
		var err error
		if in.eng == nil {
			in.eng, err = smsolver.New(m, p, 1)
		} else {
			err = in.eng.Rebuild(m, p)
		}
		if err != nil {
			return nil, err
		}
		res := in.eng.Residual(w)
		for t, tet := range m.Tets {
			max := 0.0
			for _, v := range tet {
				if r := math.Abs(res[v][0]) / m.Vol[v]; r > max {
					max = r
				}
			}
			eta[t] = max
		}
	}
	return eta, nil
}

// markTheta is the relative indicator threshold: only cells whose eta is
// at least markTheta times the largest are candidates for refinement.
const markTheta = 0.25

// markCells selects the refinement set: cells with eta at least markTheta
// of the maximum, strongest first, capped both by frac of the current cell
// count and by the headroom the budget leaves (each red cell adds at least
// seven children net, so (budget-nt)/8 marks can never blow through it by
// more than the green closure). Ties break toward the lower cell index, so
// the selection is a deterministic function of eta alone.
func markCells(eta []float64, frac float64, budget, nt int) ([]bool, int) {
	etaMax := 0.0
	for _, e := range eta {
		if e > etaMax {
			etaMax = e
		}
	}
	if etaMax <= 0 {
		return nil, 0
	}
	cut := markTheta * etaMax
	cand := make([]int32, 0, nt/4)
	for t, e := range eta {
		if e >= cut {
			cand = append(cand, int32(t))
		}
	}
	sort.SliceStable(cand, func(a, b int) bool {
		ea, eb := eta[cand[a]], eta[cand[b]]
		if ea != eb {
			return ea > eb
		}
		return cand[a] < cand[b]
	})
	k := int(frac * float64(nt))
	if head := (budget - nt) / 8; head < k {
		k = head
	}
	if k < 1 {
		k = 1
	}
	if k > len(cand) {
		k = len(cand)
	}
	marked := make([]bool, nt)
	for _, t := range cand[:k] {
		marked[t] = true
	}
	return marked, k
}
