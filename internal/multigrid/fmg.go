package multigrid

// FMGLevels is an engine's execution of full-multigrid initialization: the
// cycle's pieces plus the one piece FMG adds.
type FMGLevels interface {
	Levels
	// Lift prolongs level l's solution (not a correction) to level l-1,
	// smooths the interpolation noise, repairs the result into level l-1's
	// solution and zeroes level l-1's forcing, so that l-1 starts its solve
	// as the finest grid of the sub-hierarchy below it.
	Lift(l int) error
}

// FMG performs full-multigrid initialization of an n-level sequence: the
// flow is first solved (approximately) on the coarsest grid with
// cyclesPerLevel cycles of index gamma, then lifted one level up and
// re-solved with the sub-hierarchy below it, and so on until the finest
// grid holds a well-developed starting solution. This largely bypasses the
// impulsive-start transient that otherwise dominates the early convergence
// history. It is the one statement of the schedule; an engine's FMGInit is
// a call of it. The coarsest level starts under the forcing it holds, which
// the engine zeroes first. The first error a hook returns is returned at
// once.
func FMG(e FMGLevels, n, gamma, cyclesPerLevel int) error {
	for l := n - 1; l >= 1; l-- {
		for c := 0; c < cyclesPerLevel; c++ {
			if _, err := Cycle(e, l, n, gamma); err != nil {
				return err
			}
		}
		if err := e.Lift(l); err != nil {
			return err
		}
	}
	return nil
}

// FMGInit performs full-multigrid initialization (FMG) with cyclesPerLevel
// cycles per coarse level. After FMGInit, Cycle continues on the finest
// grid as usual.
func (s *Solver) FMGInit(cyclesPerLevel int) {
	clear(s.Levels[len(s.Levels)-1].Forcing)
	FMG(serial{s}, len(s.Levels), s.Gamma, cyclesPerLevel) // serial hooks never fail
}

func (s serial) Lift(l int) error {
	lev := s.Levels[l-1]
	s.Levels[l].Prolong.Interp(s.Levels[l].W, lev.Corr)
	lev.Disc.SmoothResiduals(lev.Corr)
	for i := range lev.Corr {
		lev.W[i] = lev.Disc.P.Repair(lev.Corr[i])
	}
	clear(lev.Forcing)
	return nil
}
