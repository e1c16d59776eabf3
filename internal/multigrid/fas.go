package multigrid

import "eul3d/internal/euler"

// The vertex pieces of the FAS cycle as range functions over [lo,hi), so
// the three drivers — the serial Solver (whole arrays), the pooled engine
// (worker chunks) and the distributed solver (each processor's owned
// range) — run one statement of them. Ranges are disjoint writes, so any
// chunking reproduces the whole-array result bitwise.

// RepairSave enforces the positivity floors on the restricted states
// w[lo:hi] and snapshots them into saved: interpolated conserved variables
// can carry negative pressure (pressure is not convex in them), and the
// coarse grid evaluates sound speeds on these states next.
func RepairSave(p *euler.Params, w, saved []euler.State, lo, hi int) {
	for i := lo; i < hi; i++ {
		st := p.Repair(w[i])
		w[i] = st
		saved[i] = st
	}
}

// Subtract forms a -= b: the forcing P = R' - R(w') once a holds the
// restricted residual R' and b the coarse residual of the restricted state.
func Subtract(a, b []euler.State, lo, hi int) {
	for i := lo; i < hi; i++ {
		for k := 0; k < euler.NVar; k++ {
			a[i][k] -= b[i][k]
		}
	}
}

// Delta forms dst = a - b: the coarse-grid correction w - w'.
func Delta(dst, a, b []euler.State, lo, hi int) {
	for i := lo; i < hi; i++ {
		for k := 0; k < euler.NVar; k++ {
			dst[i][k] = a[i][k] - b[i][k]
		}
	}
}

// ApplyCorrection adds the prolonged correction corr to w[lo:hi], skipping
// a vertex where the sum fails the positivity guard.
func ApplyCorrection(p *euler.Params, w, corr []euler.State, lo, hi int) {
	for i := lo; i < hi; i++ {
		var cand euler.State
		for k := 0; k < euler.NVar; k++ {
			cand[k] = w[i][k] + corr[i][k]
		}
		if p.Guard(cand) {
			w[i] = cand
		}
	}
}
