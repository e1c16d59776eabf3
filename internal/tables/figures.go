package tables

import (
	"fmt"
	"math"
	"strings"

	"eul3d/internal/euler"
	"eul3d/internal/mesh"
	"eul3d/internal/multigrid"
	"eul3d/internal/smsolver"
	"eul3d/internal/solver"
)

// Figure1 renders the V and W cycle structures (Euler steps E and
// interpolations I) for 3, 4 and 5 levels, as in the paper's Figure 1.
func Figure1() string {
	var b strings.Builder
	for _, gamma := range []int{1, 2} {
		name := "V"
		if gamma == 2 {
			name = "W"
		}
		fmt.Fprintf(&b, "Multigrid %s-cycles (E = Euler step, I = interpolation; top row = finest grid)\n\n", name)
		for _, levels := range []int{3, 4, 5} {
			fmt.Fprintf(&b, "%d Levels: %s\n", levels, multigrid.FormatSchedule(multigrid.Schedule(levels, gamma)))
			b.WriteString(multigrid.Diagram(levels, gamma))
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// ConvergencePoint is one sample of a convergence history.
type ConvergencePoint struct {
	Cycle    int
	Residual float64 // normalized to the first cycle's residual
}

// Figure2 reruns the convergence experiment of Figure 2: the residual
// history of the single-grid, V-cycle and W-cycle strategies on the same
// fine mesh. It returns one series per strategy (normalized density
// residuals) and keeps the converged W-cycle engine — Figure4 contours its
// solution.
type Figure2Result struct {
	Config   Config
	Series   map[string][]ConvergencePoint
	WSolver  *smsolver.Multigrid // converged W-cycle engine (for Figure 4)
	WorkUnit map[string]float64
}

// Figure2Config is the default convergence-study workload: smaller than
// the table workload so that three full solves stay interactive.
func Figure2Config() Config {
	c := DefaultConfig()
	c.NX, c.NY, c.NZ = 32, 16, 12
	c.Cycles = 300
	return c
}

// Figure2 runs the three solution strategies on the sequential engines
// solver.Open builds and records their histories.
func Figure2(cfg Config) (*Figure2Result, error) {
	res := &Figure2Result{
		Config:   cfg,
		Series:   map[string][]ConvergencePoint{},
		WorkUnit: map[string]float64{},
	}
	p := euler.DefaultParams(cfg.Mach, cfg.AlphaDeg)

	for _, strategy := range []Strategy{SingleGrid, VCycle, WCycle} {
		meshes, err := cfg.Meshes(strategy)
		if err != nil {
			return nil, err
		}
		st, err := openEngine(meshes, strategy, p)
		if err != nil {
			return nil, err
		}
		run, err := st.Run(solver.Options{MaxCycles: cfg.Cycles})
		if err != nil {
			return nil, err
		}
		name := strategy.String()
		for c, norm := range run.History {
			res.Series[name] = append(res.Series[name], ConvergencePoint{
				Cycle:    c,
				Residual: norm / run.History[0],
			})
		}
		res.WorkUnit[name] = 1
		if st.MG != nil {
			res.WorkUnit[name] = st.MG.WorkUnits()
		}
		if strategy == WCycle {
			res.WSolver = st.MG
		}
	}
	return res, nil
}

// openEngine opens the sequential engine of strategy on meshes (finest
// first): the single grid on the finest, or the FAS multigrid with the
// strategy's cycle index on all of them.
func openEngine(meshes []*mesh.Mesh, strategy Strategy, p euler.Params) (*solver.Steady, error) {
	g := strategy.Gamma()
	if g == 0 {
		return solver.Open(meshes[:1], p, solver.Config{})
	}
	return solver.Open(meshes, p, solver.Config{Kind: solver.KindMG, Gamma: g})
}

// OrdersReduced returns how many orders of magnitude the named strategy's
// residual fell over the run.
func (r *Figure2Result) OrdersReduced(name string) float64 {
	s := r.Series[name]
	if len(s) == 0 {
		return 0
	}
	last := s[len(s)-1].Residual
	if last <= 0 {
		return math.Inf(1)
	}
	return -math.Log10(last)
}

// CSV renders all series as cycle,strategy,residual rows, in the order
// Figure2 runs the strategies (a map range would shuffle them run to run).
func (r *Figure2Result) CSV() string {
	var b strings.Builder
	b.WriteString("cycle,strategy,normalized_residual\n")
	for _, strategy := range []Strategy{SingleGrid, VCycle, WCycle} {
		name := strategy.String()
		for _, pt := range r.Series[name] {
			fmt.Fprintf(&b, "%d,%s,%.6e\n", pt.Cycle, name, pt.Residual)
		}
	}
	return b.String()
}

// Figure3 reports the mesh sequence statistics corresponding to the
// paper's Figure 3 caption (its aircraft mesh figure): points and
// tetrahedra per multigrid level.
func Figure3(cfg Config) (string, error) {
	meshes, err := cfg.Meshes(WCycle)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Multigrid mesh sequence for the bump-channel configuration (paper: aircraft, 804,056 / 106,064 / ... points)\n")
	fmt.Fprintf(&b, "%6s %10s %12s %10s %10s\n", "Level", "Points", "Tetrahedra", "Edges", "BFaces")
	for l, m := range meshes {
		s := m.ComputeStats()
		fmt.Fprintf(&b, "%6d %10d %12d %10d %10d\n", l, s.NVert, s.NTet, s.NEdge, s.NBFace)
	}
	return b.String(), nil
}

// MachField samples the Mach number on the symmetry plane z = LZ/2 of a
// converged solution, as a rectangular raster for contouring (Figure 4).
type MachField struct {
	NX, NY int
	X, Y   []float64 // axis coordinates
	M      []float64 // NX*NY row-major Mach samples
	MaxM   float64
}

// Figure4 is MachPlane of the finest grid of a converged multigrid engine.
func Figure4(mg *smsolver.Multigrid, nx, ny int) *MachField {
	fine := mg.Fine()
	return MachPlane(fine.D.M, fine.W, fine.D.P.Gas, nx, ny)
}

// MachPlane extracts the Mach field of the solution w on mesh m (gas g)
// on the mid-span plane as an nx x ny raster, interpolating vertex Mach
// numbers by inverse-distance weighting of nearby vertices. It reads only
// the mesh's coordinates, so any engine's solution on m contours the same.
func MachPlane(m *mesh.Mesh, w []euler.State, g euler.Gas, nx, ny int) *MachField {

	// Domain bounds.
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	minZ, maxZ := math.Inf(1), math.Inf(-1)
	for _, x := range m.X {
		minX, maxX = math.Min(minX, x.X), math.Max(maxX, x.X)
		minY, maxY = math.Min(minY, x.Y), math.Max(maxY, x.Y)
		minZ, maxZ = math.Min(minZ, x.Z), math.Max(maxZ, x.Z)
	}
	zmid := 0.5 * (minZ + maxZ)

	f := &MachField{NX: nx, NY: ny}
	for i := 0; i < nx; i++ {
		f.X = append(f.X, minX+(maxX-minX)*float64(i)/float64(nx-1))
	}
	for j := 0; j < ny; j++ {
		f.Y = append(f.Y, minY+(maxY-minY)*float64(j)/float64(ny-1))
	}

	// Vertices near the mid-plane, with their Mach numbers.
	type pt struct {
		x, y, mach float64
	}
	var pts []pt
	slab := (maxZ - minZ) / 6
	for v, x := range m.X {
		if math.Abs(x.Z-zmid) <= slab {
			pts = append(pts, pt{x.X, x.Y, g.Mach(w[v])})
		}
	}

	f.M = make([]float64, nx*ny)
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			px, py := f.X[i], f.Y[j]
			num, den := 0.0, 0.0
			for _, p := range pts {
				d2 := (p.x-px)*(p.x-px) + (p.y-py)*(p.y-py) + 1e-12
				wgt := 1 / (d2 * d2)
				num += wgt * p.mach
				den += wgt
			}
			mach := num / den
			f.M[j*nx+i] = mach
			if mach > f.MaxM {
				f.MaxM = mach
			}
		}
	}
	return f
}

// CSV renders the raster as x,y,mach rows.
func (f *MachField) CSV() string {
	var b strings.Builder
	b.WriteString("x,y,mach\n")
	for j := 0; j < f.NY; j++ {
		for i := 0; i < f.NX; i++ {
			fmt.Fprintf(&b, "%.4f,%.4f,%.4f\n", f.X[i], f.Y[j], f.M[j*f.NX+i])
		}
	}
	return b.String()
}

// ASCII renders the Mach field as banded contour art (top of the channel
// on the first row), with '*' marking supersonic cells — the shock pattern
// of Figure 4 in 80 columns.
func (f *MachField) ASCII() string {
	bands := []byte(" .:-=+oO")
	var b strings.Builder
	minM := math.Inf(1)
	for _, m := range f.M {
		minM = math.Min(minM, m)
	}
	span := f.MaxM - minM
	if span == 0 {
		span = 1
	}
	for j := f.NY - 1; j >= 0; j-- {
		for i := 0; i < f.NX; i++ {
			m := f.M[j*f.NX+i]
			if m >= 1 {
				b.WriteByte('*') // supersonic pocket
				continue
			}
			k := int(float64(len(bands)-1) * (m - minM) / span)
			if k < 0 {
				k = 0
			}
			if k >= len(bands) {
				k = len(bands) - 1
			}
			b.WriteByte(bands[k])
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "Mach range [%.3f, %.3f]; '*' = supersonic\n", minM, f.MaxM)
	return b.String()
}
