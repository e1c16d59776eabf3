package multigrid

import "eul3d/internal/euler"

// FMGInit performs full-multigrid initialization: the flow is first solved
// (approximately) on the coarsest grid, then interpolated one level up and
// re-solved with the sub-hierarchy below it, and so on until the finest
// grid receives a well-developed starting solution. This largely bypasses
// the impulsive-start transient that otherwise dominates the early
// convergence history. cyclesPerLevel controls the work per intermediate
// level. After FMGInit, Cycle() continues on the finest grid as usual.
func (s *Solver) FMGInit(cyclesPerLevel int) {
	nlev := len(s.Levels)
	for l := nlev - 1; l >= 1; l-- {
		// Solve with level l acting as the finest grid: its forcing stays
		// zero, so the FAS hierarchy below it behaves exactly like a
		// stand-alone multigrid solver on that mesh.
		zeroForcing(s.Levels[l])
		for c := 0; c < cyclesPerLevel; c++ {
			Cycle(serial{s}, l, len(s.Levels), s.Gamma) // serial hooks never fail
		}
		// Prolong the developed solution (not a correction) to the next
		// finer level and smooth the interpolation noise.
		lev := s.Levels[l-1]
		s.Levels[l].Prolong.Interp(s.Levels[l].W, lev.Corr)
		lev.Disc.SmoothResiduals(lev.Corr)
		for i := range lev.Corr {
			lev.W[i] = lev.Disc.P.Repair(lev.Corr[i])
		}
	}
}

func zeroForcing(lev *Level) {
	if lev.Forcing == nil {
		return
	}
	for i := range lev.Forcing {
		lev.Forcing[i] = euler.State{}
	}
}
