// Package meshgen generates the synthetic unstructured tetrahedral meshes
// used throughout this reproduction. The paper's aircraft meshes came from a
// proprietary sequential advancing-front generator; here a channel domain
// with a smooth wall bump (the classical transonic test geometry) is
// tetrahedralized by a Kuhn subdivision of a structured hexahedral grid,
// optionally jittered in the interior so that successive multigrid levels
// are genuinely non-nested, exactly as EUL3D's "completely unrelated coarse
// and fine grids" require.
package meshgen

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"eul3d/internal/geom"
	"eul3d/internal/mesh"
)

// ChannelSpec describes a channel mesh with an optional circular-arc-like
// bump on the bottom wall (y = 0).
type ChannelSpec struct {
	NX, NY, NZ int     // cells per direction (vertices are N+1)
	LX, LY, LZ float64 // domain extents

	BumpHeight float64 // bump height as a fraction of LY (0 disables)
	BumpStart  float64 // bump x-extent start
	BumpEnd    float64 // bump x-extent end

	// RampAngleDeg replaces the sinusoidal bump with a compression ramp:
	// the bottom wall rises at this angle from BumpStart to BumpEnd and
	// stays at the reached height downstream (set BumpEnd = LX for a pure
	// wedge). BumpHeight is ignored when nonzero.
	RampAngleDeg float64

	// WallEnds turns the x = 0 and x = LX faces into inviscid walls instead
	// of far-field. Shock-tube scenarios need this: their initial data does
	// not match any single freestream state, so far-field ends would inject
	// spurious waves, while closed ends are exact as long as no wave reaches
	// them.
	WallEnds bool

	Jitter float64 // interior node jitter as a fraction of local spacing
	Seed   int64   // jitter RNG seed (levels should differ)
}

// DefaultChannel returns the transonic bump-channel specification used by
// the repository's experiments at the given resolution.
func DefaultChannel(nx, ny, nz int, seed int64) ChannelSpec {
	return ChannelSpec{
		NX: nx, NY: ny, NZ: nz,
		LX: 3, LY: 1, LZ: 1,
		BumpHeight: 0.06,
		BumpStart:  1.0,
		BumpEnd:    2.0,
		Jitter:     0.12,
		Seed:       seed,
	}
}

// kuhnTets lists the Kuhn subdivision of a hexahedron into six tetrahedra
// sharing the main diagonal (corner 0 to corner 7). Corner numbering:
// bit 0 = +x, bit 1 = +y, bit 2 = +z. Every tet below is positively
// oriented for an axis-aligned cell.
var kuhnTets = [6][4]int{
	{0, 1, 3, 7},
	{0, 3, 2, 7},
	{0, 2, 6, 7},
	{0, 6, 4, 7},
	{0, 4, 5, 7},
	{0, 5, 1, 7},
}

// bump returns the bottom-wall elevation at streamwise position x.
func (s ChannelSpec) bump(x float64) float64 {
	if s.RampAngleDeg != 0 {
		slope := math.Tan(s.RampAngleDeg * math.Pi / 180)
		switch {
		case x <= s.BumpStart:
			return 0
		case x >= s.BumpEnd:
			return slope * (s.BumpEnd - s.BumpStart)
		default:
			return slope * (x - s.BumpStart)
		}
	}
	if s.BumpHeight == 0 || x <= s.BumpStart || x >= s.BumpEnd {
		return 0
	}
	t := (x - s.BumpStart) / (s.BumpEnd - s.BumpStart)
	sin := math.Sin(math.Pi * t)
	return s.BumpHeight * s.LY * sin * sin
}

// Channel generates a finished channel mesh from spec. Boundary conditions:
// x=0 and x=LX faces are far-field (inflow/outflow), y faces are walls
// (the bottom one carries the bump), z faces are symmetry planes.
func Channel(spec ChannelSpec) (*mesh.Mesh, error) {
	if spec.NX < 1 || spec.NY < 1 || spec.NZ < 1 {
		return nil, fmt.Errorf("meshgen: cell counts must be >= 1, got %d x %d x %d", spec.NX, spec.NY, spec.NZ)
	}
	nx, ny, nz := spec.NX, spec.NY, spec.NZ
	nvx, nvy, nvz := nx+1, ny+1, nz+1
	nv := nvx * nvy * nvz

	vid := func(i, j, k int) int32 { return int32(i + nvx*(j+nvy*k)) }

	m := &mesh.Mesh{X: make([]geom.Vec3, nv)}
	hx := spec.LX / float64(nx)
	hy := spec.LY / float64(ny)
	hz := spec.LZ / float64(nz)

	// The topology does not depend on the coordinates: tets and boundary
	// faces once, then coordinates until Finish accepts every tet.
	m.Tets = make([][4]int32, 0, 6*nx*ny*nz)
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				var c [8]int32
				for b := 0; b < 8; b++ {
					c[b] = vid(i+b&1, j+(b>>1)&1, k+(b>>2)&1)
				}
				for _, t := range kuhnTets {
					m.Tets = append(m.Tets, [4]int32{c[t[0]], c[t[1]], c[t[2]], c[t[3]]})
				}
			}
		}
	}
	addBoundaryFaces(m, spec, vid)

	rng := rand.New(rand.NewSource(spec.Seed))
	jit := spec.Jitter
	for try := 0; ; try++ {
		rng.Seed(spec.Seed + int64(try))
		for k := 0; k < nvz; k++ {
			for j := 0; j < nvy; j++ {
				for i := 0; i < nvx; i++ {
					x := float64(i) * hx
					y := float64(j) * hy
					z := float64(k) * hz
					if jit > 0 && i > 0 && i < nx && j > 0 && j < ny && k > 0 && k < nz {
						x += jit * hx * (2*rng.Float64() - 1)
						y += jit * hy * (2*rng.Float64() - 1)
						z += jit * hz * (2*rng.Float64() - 1)
					}
					// Shear the column upward over the bump, decaying to
					// zero at the top wall so the channel height is kept.
					b := spec.bump(x)
					y += b * (1 - y/spec.LY)
					m.X[vid(i, j, k)] = geom.Vec3{X: x, Y: y, Z: z}
				}
			}
		}
		// Every index is in range, so Finish fails only on a tet of
		// non-positive volume: jitter or bump shear inverted one. Retry
		// with smaller jitter.
		if m.Finish() == nil {
			return m, nil
		}
		jit /= 2
		if try > 20 {
			return nil, fmt.Errorf("meshgen: could not generate positively-oriented mesh (bump too steep?)")
		}
	}
}

// outwardFaces lists, for a positively oriented tet (a,b,c,d), its four
// faces ordered so that each triangle's normal points out of the tet.
var outwardFaces = [4][3]int{
	{1, 2, 3}, // opposite vertex 0
	{0, 3, 2}, // opposite vertex 1
	{0, 1, 3}, // opposite vertex 2
	{0, 2, 1}, // opposite vertex 3
}

// cellFaces[axis][side] lists, as cell-corner triples in kuhnTets then
// outwardFaces order, the outward tet faces that lie in a cell's face on
// the low (side 0) or high (side 1) end of axis: those whose three corners
// all have that value of the axis's corner bit. Each cell face is split
// into two of them.
var cellFaces = func() (cf [3][2][][3]int) {
	for _, t := range kuhnTets {
		for _, f := range outwardFaces {
			c := [3]int{t[f[0]], t[f[1]], t[f[2]]}
			for axis := range 3 {
				for side := range 2 {
					if c[0]>>axis&1 == side && c[1]>>axis&1 == side && c[2]>>axis&1 == side {
						cf[axis][side] = append(cf[axis][side], c)
					}
				}
			}
		}
	}
	return cf
}()

// addBoundaryFaces walks the cells adjacent to each domain boundary plane
// and emits, from cellFaces, the tet faces lying in that plane, already
// outward-oriented. This is O(surface) and needs no global face hashing,
// which matters at paper scale (4.5M tets).
func addBoundaryFaces(m *mesh.Mesh, spec ChannelSpec, vid func(i, j, k int) int32) {
	n := [3]int{spec.NX, spec.NY, spec.NZ}
	// corner[b] is the offset of cell corner b from the cell's corner 0.
	var corner [8]int32
	for b := range corner {
		corner[b] = vid(b&1, (b>>1)&1, (b>>2)&1)
	}

	type plane struct {
		axis, side int
		kind       mesh.BCKind
	}
	endKind := mesh.FarField
	if spec.WallEnds {
		endKind = mesh.Wall
	}
	planes := []plane{
		{0, 0, endKind},   // inflow (or closed shock-tube end)
		{0, 1, endKind},   // outflow (or closed shock-tube end)
		{1, 0, mesh.Wall}, // bottom wall (bump)
		{1, 1, mesh.Wall}, // top wall
		{2, 0, mesh.Symmetry},
		{2, 1, mesh.Symmetry},
	}

	m.BFaces = make([]mesh.BFace, 0, 4*(n[1]*n[2]+n[0]*n[2]+n[0]*n[1]))
	for _, p := range planes {
		// The plane's cells run over the other two axes, the lower one
		// fastest.
		u, w := (p.axis+1)%3, (p.axis+2)%3
		u, w = min(u, w), max(u, w)
		var cell [3]int
		cell[p.axis] = p.side * (n[p.axis] - 1)
		for cell[w] = 0; cell[w] < n[w]; cell[w]++ {
			for cell[u] = 0; cell[u] < n[u]; cell[u]++ {
				base := vid(cell[0], cell[1], cell[2])
				for _, c := range cellFaces[p.axis][p.side] {
					m.BFaces = append(m.BFaces, mesh.BFace{
						V:    [3]int32{base + corner[c[0]], base + corner[c[1]], base + corner[c[2]]},
						Kind: p.kind,
					})
				}
			}
		}
	}
}

// Sequence generates a multigrid sequence of levels meshes over the same
// domain, finest first. Each level halves the cell counts (never below 2)
// and uses a different jitter seed, so consecutive grids are non-nested —
// the regime EUL3D's transfer operators are designed for. Every level is a
// Channel of its own spec alone, so levels 1.. are generated on goroutines
// of their own while the caller's generates level 0 (a one-level sequence
// starts none); the first failure in level order is reported.
func Sequence(spec ChannelSpec, levels int) ([]*mesh.Mesh, error) {
	if levels < 1 {
		return nil, fmt.Errorf("meshgen: levels must be >= 1, got %d", levels)
	}
	out := make([]*mesh.Mesh, levels)
	errs := make([]error, levels)
	var wg sync.WaitGroup
	s := spec
	for l := 1; l < levels; l++ {
		s.Seed = spec.Seed + int64(1000*l)
		s.NX = max2(s.NX/2, 2)
		s.NY = max2(s.NY/2, 2)
		s.NZ = max2(s.NZ/2, 2)
		wg.Add(1)
		go func(s ChannelSpec) {
			defer wg.Done()
			out[l], errs[l] = Channel(s)
		}(s)
	}
	out[0], errs[0] = Channel(spec)
	wg.Wait()
	for l, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("meshgen: level %d: %w", l, err)
		}
	}
	return out, nil
}

func max2(a, b int) int {
	if a > b {
		return a
	}
	return b
}
