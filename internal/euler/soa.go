package euler

// StateSoA is the block the range kernels of kernels_soa.go gather from and
// accumulate into: one 40-byte State record per vertex, laid out exactly as
// a []State. Since the edge sweeps were fused (PR 19) every edge reads all
// five conserved components of both ends, and Go does not vectorise the
// loops, so five component streams bought no SIMD and cost up to five cache
// lines per endpoint where a record costs one or two. Measured against each
// other, records take 26–29 % off the fused sweeps and dissipation pass 2
// and 43 % off the gather smoother in the engine's order, and about half on
// a scrambled mesh (EXPERIMENTS.md, "One record per vertex") — the
// AoS-versus-SoA question Dai et al. (arXiv:2209.01877) and Maier &
// Kronbichler (arXiv:2007.00094) settle by measurement, not by rule. The
// name is the streams' and stays because the benchmark calls it.
//
// A block is a []State in all but name, so a solution, residual or
// exchange array is handed to a kernel as it is (Block) and a block to
// anything that takes a []State by dereferencing it: there are no shims.
type StateSoA []State

// NewStateSoA allocates a zeroed block of nv vertices.
func NewStateSoA(nv int) *StateSoA {
	s := make(StateSoA, nv)
	return &s
}

// Block views the state array *w as a block: the same records, no copy.
// The view follows *w, so it stays valid when *w is reassigned.
func Block(w *[]State) *StateSoA { return (*StateSoA)(w) }

// Resize re-views the block for nv vertices, reallocating only when the
// backing array is too small (with headroom, so repeated adaptation epochs
// amortize). Contents are not preserved across a Resize.
func (s *StateSoA) Resize(nv int) { *s = Grow(*s, nv) }

// Len returns the number of vertices.
func (s *StateSoA) Len() int { return len(*s) }

// ZeroRange clears the vertices [lo,hi).
func (s *StateSoA) ZeroRange(lo, hi int) { clear((*s)[lo:hi]) }
