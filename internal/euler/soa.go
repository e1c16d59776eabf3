package euler

// StateSoA is the structure-of-arrays layout of a []State field: one
// contiguous float64 slice per conserved variable. The shared-memory
// engine's hot edge kernels (flux and dissipation accumulation) and vertex
// sweeps run on this layout — each k-component loop then streams five
// independent contiguous arrays instead of striding through 40-byte
// records, which is the data-layout conversion Dai et al. (arXiv:2209.01877)
// apply to the same class of unstructured edge loops. The public solver
// interfaces keep []State; the conversions below are the shims between the
// two layouts and are exact (pure copies, no arithmetic), so switching
// layouts never perturbs results.
type StateSoA struct {
	Comp [NVar][]float64

	backing []float64 // the single allocation the Comp slices view
}

// NewStateSoA allocates an SoA block for nv vertices.
func NewStateSoA(nv int) *StateSoA {
	s := &StateSoA{}
	s.Resize(nv)
	return s
}

// Resize re-views the block for nv vertices, reallocating only when the
// backing array is too small (with headroom, so repeated adaptation epochs
// amortize). Contents are not preserved across a Resize.
func (s *StateSoA) Resize(nv int) {
	need := NVar * nv
	if cap(s.backing) < need {
		// One backing allocation keeps the five component arrays adjacent,
		// so a full-state sweep walks one contiguous region.
		s.backing = make([]float64, need, need+need/4)
	}
	b := s.backing[:need]
	for k := 0; k < NVar; k++ {
		s.Comp[k] = b[k*nv : (k+1)*nv : (k+1)*nv]
	}
}

// Len returns the number of vertices.
func (s *StateSoA) Len() int { return len(s.Comp[0]) }

// FromStates copies w[lo:hi] into the SoA layout (gather shim), reading
// each 40-byte record once.
func (s *StateSoA) FromStates(w []State, lo, hi int) {
	c0, c1, c2, c3, c4 := s.Comp[0], s.Comp[1], s.Comp[2], s.Comp[3], s.Comp[4]
	for i := lo; i < hi; i++ {
		st := w[i]
		c0[i], c1[i], c2[i], c3[i], c4[i] = st[0], st[1], st[2], st[3], st[4]
	}
}

// ToStates copies the SoA range [lo,hi) back into w (scatter shim).
func (s *StateSoA) ToStates(w []State, lo, hi int) {
	for k := 0; k < NVar; k++ {
		c := s.Comp[k]
		for i := lo; i < hi; i++ {
			w[i][k] = c[i]
		}
	}
}

// At gathers vertex i as a State value.
func (s *StateSoA) At(i int) State {
	var st State
	for k := 0; k < NVar; k++ {
		st[k] = s.Comp[k][i]
	}
	return st
}

// Set scatters st into vertex i.
func (s *StateSoA) Set(i int, st State) {
	for k := 0; k < NVar; k++ {
		s.Comp[k][i] = st[k]
	}
}

// ZeroRange clears the vertices [lo,hi).
func (s *StateSoA) ZeroRange(lo, hi int) {
	for k := 0; k < NVar; k++ {
		c := s.Comp[k][lo:hi]
		for i := range c {
			c[i] = 0
		}
	}
}

// CopyRange copies src's range [lo,hi) into s.
func (s *StateSoA) CopyRange(src *StateSoA, lo, hi int) {
	for k := 0; k < NVar; k++ {
		copy(s.Comp[k][lo:hi], src.Comp[k][lo:hi])
	}
}
