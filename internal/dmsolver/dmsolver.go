// Package dmsolver is the distributed-memory implementation of EUL3D,
// mirroring the paper's Intel Touchstone Delta port. The mesh (and each
// coarser mesh of a multigrid sequence) is partitioned across P simulated
// processors, and the port is the paper's inspector/executor
// transformation: the *same* loop bodies as the sequential solver — the
// reference operator of package euler, called here on each processor's
// partition-local edge, face and vertex arrays — with PARTI gather/scatter
// executors inserted at exactly the points where off-processor data is
// produced or consumed:
//
//   - flow variables are gathered into ghost slots once per Runge-Kutta
//     stage (the paper: "We can obtain all of the off-processor flow
//     variables needed at the beginning of the step");
//   - edge-loop accumulations (convective and dissipative residuals,
//     Laplacians, sensor sums, spectral radii, smoothing sums) land in
//     ghost slots and are scatter-added back to their owners, everything
//     consecutive loops accumulated in one message per neighbour;
//   - multigrid transfers use incremental schedules on top of the flow
//     variable schedule, fetching only addresses not already ghosted.
//
// The package is one program and two drivers. The program (ops.go) is the
// node program of the Delta port, stated once: which compute phase runs
// when and which exchange separates it from the next. It holds no
// arithmetic, so every euler.Params field is honoured here by construction.
// A driver (driver.go) executes it: the sequential one, behind Cycle, runs
// every processor's phases in turn on the calling goroutine and completes
// each exchange as a whole-schedule collective; the MIMD one, behind
// CycleConcurrent, gives every simulated processor a goroutine and
// completes each exchange as send half, barrier, receive half, barrier.
//
// On one processor the answers are bitwise those of the sequential solver;
// across partition boundaries the per-vertex sums reassociate and they
// agree to roundoff. Tests assert both.
package dmsolver

import (
	"fmt"
	"time"

	"eul3d/internal/euler"
	"eul3d/internal/geom"
	"eul3d/internal/mesh"
	"eul3d/internal/multigrid"
	"eul3d/internal/parti"
	"eul3d/internal/simnet"
)

// CommCounters tallies schedule executions per cycle class so the Delta
// machine model can convert communication volume into time. An exchange
// counts once, whatever it carries, under the element type of its first
// array (states before scalars).
type CommCounters struct {
	GatherState  int64 // gathers led by a state array
	ScatterState int64 // scatter-adds led by a state array
	GatherFloat  int64 // gathers of scalar arrays alone
	ScatterFloat int64 // scatter-adds of scalar arrays alone
}

// Level holds the distributed state of one grid level.
type Level struct {
	Index int        // position in Solver.Levels (0 = finest)
	M     *mesh.Mesh // the global mesh (preprocessing data; not touched in loops)
	Part  []int32    // vertex -> processor
	Dist  *parti.Dist
	GS    *parti.GhostSpace

	// SchedW fills ghosts of every vertex referenced by local edge or
	// boundary-face loops. It is built first, so its ghosts are the leading
	// ghost slots: EdgeSpan[p] = owned + SchedW ghosts is the prefix of
	// processor p's arrays those loops address. The slots the transfer
	// schedules add behind it are read by restriction and prolongation only.
	SchedW   *parti.Schedule
	EdgeSpan []int
	// SchedRestrict (on this level, for the coarser level's benefit) and
	// SchedCoarse are built by the multigrid constructor; nil otherwise.
	SchedFine   *parti.Schedule // extra fine-level ghosts for restriction (lives on the finer level)
	SchedCoarse *parti.Schedule // coarse-level ghosts for prolongation/residual scatter

	// Per-processor topology, local indices into [owned | ghost] arrays.
	Edges  [][][2]int32
	ENorm  [][]geom.Vec3
	BFaces [][]mesh.BFace // vertex indices local
	Vol    [][]float64    // owned only
	Deg    [][]int32      // true global degree, owned only

	// Per-processor solution and scratch arrays, sized TotalSize(p).
	W, W0, Conv, Diss, Res, Lapl, Smooth, RHS, Forcing, WSaved, Corr [][]euler.State
	Pres, Num, Den, Lam, Dt                                          [][]float64

	// Multigrid transfer operators localized per processor (nil on the
	// finest level): the rows of the global operators whose target vertex
	// the processor owns, with local source addresses. Restrict[p] takes
	// the finer level's local arrays to this level's owned vertices;
	// Prolong[p] takes this level's local arrays to the finer level's owned
	// vertices, and its transpose restricts residuals.
	Restrict, Prolong []multigrid.TransferOp
}

// Solver is the distributed-memory flow solver (single grid when it has one
// level, FAS multigrid otherwise).
type Solver struct {
	P      euler.Params
	NProc  int
	Gamma  int
	Fabric *simnet.Fabric
	Levels []*Level
	Comm   CommCounters

	partial []float64 // per-processor terms of the residual-norm reduction

	// Flight recorder (trace.go): nil when tracing is disabled. builds
	// keeps the construction timings for replay into a later-attached
	// tracer.
	st     *solverTrace
	builds []buildSpan
}

// NewSingle builds a distributed single-grid solver over m with the given
// vertex partition.
func NewSingle(m *mesh.Mesh, part []int32, nproc int, p euler.Params) (*Solver, error) {
	return build([]*mesh.Mesh{m}, [][]int32{part}, nproc, p, 1)
}

// NewMultigrid builds a distributed FAS multigrid solver. parts[0] is the
// fine-grid partition; coarser levels, if their entry is nil, inherit the
// partition through the transfer operators (each coarse vertex joins the
// processor owning the dominant fine vertex of its containing tetrahedron),
// which keeps inter-grid transfers mostly local.
func NewMultigrid(meshes []*mesh.Mesh, parts [][]int32, nproc int, p euler.Params, gamma int) (*Solver, error) {
	return build(meshes, parts, nproc, p, gamma)
}

func build(meshes []*mesh.Mesh, parts [][]int32, nproc int, p euler.Params, gamma int) (*Solver, error) {
	if len(meshes) == 0 {
		return nil, fmt.Errorf("dmsolver: no meshes")
	}
	if len(parts) != len(meshes) {
		return nil, fmt.Errorf("dmsolver: %d meshes but %d partitions", len(meshes), len(parts))
	}
	if nproc < 1 {
		return nil, fmt.Errorf("dmsolver: nproc must be >= 1")
	}
	s := &Solver{P: p, NProc: nproc, Gamma: gamma, Fabric: simnet.New(nproc), partial: make([]float64, nproc)}

	// Sequential preprocessing: transfer operators between levels.
	var restrictOps, prolongOps []*multigrid.TransferOp // index l: between level l-1 (fine) and l (coarse)
	for l := 1; l < len(meshes); l++ {
		bt := time.Now()
		r, err := multigrid.BuildTransfer(meshes[l], meshes[l-1])
		if err != nil {
			return nil, fmt.Errorf("dmsolver: restrict %d: %w", l, err)
		}
		pr, err := multigrid.BuildTransfer(meshes[l-1], meshes[l])
		if err != nil {
			return nil, fmt.Errorf("dmsolver: prolong %d: %w", l, err)
		}
		restrictOps = append(restrictOps, r)
		prolongOps = append(prolongOps, pr)
		s.recordBuild("transfer-build", l, bt)
	}

	for l, m := range meshes {
		part := parts[l]
		if part == nil {
			if l == 0 {
				return nil, fmt.Errorf("dmsolver: fine-grid partition is required")
			}
			// Inherit: coarse vertex joins the processor of the dominant
			// fine interpolation address.
			op := restrictOps[l-1]
			part = make([]int32, m.NV())
			for v := range part {
				best := 0
				for k := 1; k < 4; k++ {
					if op.Wt[v][k] > op.Wt[v][best] {
						best = k
					}
				}
				part[v] = s.Levels[l-1].Part[op.Addr[v][best]]
			}
		}
		if len(part) != m.NV() {
			return nil, fmt.Errorf("dmsolver: level %d partition has %d entries for %d vertices", l, len(part), m.NV())
		}
		bt := time.Now()
		lev, err := buildLevel(m, part, nproc)
		if err != nil {
			return nil, fmt.Errorf("dmsolver: level %d: %w", l, err)
		}
		s.recordBuild("schedule-build", l, bt)
		lev.Index = l
		s.Levels = append(s.Levels, lev)
	}

	// Localize the multigrid transfer operators and build their
	// (incremental) schedules.
	for l := 1; l < len(s.Levels); l++ {
		bt := time.Now()
		fine, coarse := s.Levels[l-1], s.Levels[l]
		rop, pop := restrictOps[l-1], prolongOps[l-1]

		// Restriction: coarse-owned vertices reference fine globals.
		fineRefs := make([][]int32, nproc)
		for p := 0; p < nproc; p++ {
			for _, g := range coarse.Dist.L2G[p] {
				fineRefs[p] = append(fineRefs[p], rop.Addr[g][:]...)
			}
		}
		coarse.SchedFine, _ = parti.BuildIncremental(fine.GS, fineRefs)

		// Prolongation / residual scatter: fine-owned vertices reference
		// coarse globals.
		coarseRefs := make([][]int32, nproc)
		for p := 0; p < nproc; p++ {
			for _, g := range fine.Dist.L2G[p] {
				coarseRefs[p] = append(coarseRefs[p], pop.Addr[g][:]...)
			}
		}
		coarse.SchedCoarse, _ = parti.BuildIncremental(coarse.GS, coarseRefs)

		// Localized operators (built after all ghost slots are allocated;
		// Localize on an existing ghost is a lookup).
		coarse.Restrict = make([]multigrid.TransferOp, nproc)
		coarse.Prolong = make([]multigrid.TransferOp, nproc)
		for p := 0; p < nproc; p++ {
			coarse.Restrict[p] = localizeOp(rop, coarse.Dist.L2G[p], fine.GS, p)
			coarse.Prolong[p] = localizeOp(pop, fine.Dist.L2G[p], coarse.GS, p)
		}
		s.recordBuild("incremental-build", l, bt)
	}

	// Allocate solution arrays now that every ghost slot exists.
	for _, lev := range s.Levels {
		lev.alloc(nproc)
	}
	s.InitUniform()
	return s, nil
}

// localizeOp returns the rows of op for the target vertices proc p owns,
// their source addresses translated to p's local numbering in gs.
func localizeOp(op *multigrid.TransferOp, targets []int32, gs *parti.GhostSpace, p int) multigrid.TransferOp {
	loc := multigrid.TransferOp{Addr: make([][4]int32, len(targets)), Wt: make([][4]float64, len(targets))}
	for li, g := range targets {
		for k := 0; k < 4; k++ {
			loc.Addr[li][k] = gs.Localize(p, op.Addr[g][k])
		}
		loc.Wt[li] = op.Wt[g]
	}
	return loc
}

// buildLevel partitions one mesh's topology across processors.
func buildLevel(m *mesh.Mesh, part []int32, nproc int) (*Level, error) {
	dist, err := parti.NewDist(part, nproc)
	if err != nil {
		return nil, err
	}
	// Processors may own no vertices of a level: the paper's coarsest grid
	// had far fewer points than the Delta had nodes ("smaller data sets
	// spread over an equally large number of processors"). Such processors
	// simply idle through that level's loops.
	lev := &Level{M: m, Part: part, Dist: dist, GS: parti.NewGhostSpace(dist)}

	// Inspector: collect each processor's references (edge endpoints and
	// boundary-face vertices of the loops assigned to it).
	refs := make([][]int32, nproc)
	for _, e := range m.Edges {
		p := part[e[0]] // each edge is computed by the owner of its first endpoint
		refs[p] = append(refs[p], e[0], e[1])
	}
	for i := range m.BFaces {
		f := &m.BFaces[i]
		p := part[f.V[0]]
		refs[p] = append(refs[p], f.V[0], f.V[1], f.V[2])
	}
	lev.SchedW = parti.BuildSchedule(lev.GS, refs)
	lev.EdgeSpan = make([]int, nproc)
	for p := range lev.EdgeSpan {
		lev.EdgeSpan[p] = lev.GS.TotalSize(p)
	}

	// Executor-side topology with localized addresses.
	lev.Edges = make([][][2]int32, nproc)
	lev.ENorm = make([][]geom.Vec3, nproc)
	lev.BFaces = make([][]mesh.BFace, nproc)
	for ei, e := range m.Edges {
		p := int(part[e[0]])
		lev.Edges[p] = append(lev.Edges[p], [2]int32{
			lev.GS.Localize(p, e[0]),
			lev.GS.Localize(p, e[1]),
		})
		lev.ENorm[p] = append(lev.ENorm[p], m.EdgeNorm[ei])
	}
	for i := range m.BFaces {
		f := &m.BFaces[i]
		p := int(part[f.V[0]])
		lev.BFaces[p] = append(lev.BFaces[p], mesh.BFace{
			V: [3]int32{
				lev.GS.Localize(p, f.V[0]),
				lev.GS.Localize(p, f.V[1]),
				lev.GS.Localize(p, f.V[2]),
			},
			Normal: f.Normal,
			Kind:   f.Kind,
		})
	}

	// Owned dual volumes and true global degrees.
	deg := make([]int32, m.NV())
	for _, e := range m.Edges {
		deg[e[0]]++
		deg[e[1]]++
	}
	lev.Vol = make([][]float64, nproc)
	lev.Deg = make([][]int32, nproc)
	for p := 0; p < nproc; p++ {
		lev.Vol[p] = make([]float64, dist.Count(p))
		lev.Deg[p] = make([]int32, dist.Count(p))
		for li, g := range dist.L2G[p] {
			lev.Vol[p][li] = m.Vol[g]
			lev.Deg[p][li] = deg[g]
		}
	}
	return lev, nil
}

// alloc sizes the per-processor solution arrays to owned+ghost.
func (lev *Level) alloc(nproc int) {
	mk := func() [][]euler.State {
		a := make([][]euler.State, nproc)
		for p := 0; p < nproc; p++ {
			a[p] = make([]euler.State, lev.GS.TotalSize(p))
		}
		return a
	}
	mkf := func() [][]float64 {
		a := make([][]float64, nproc)
		for p := 0; p < nproc; p++ {
			a[p] = make([]float64, lev.GS.TotalSize(p))
		}
		return a
	}
	lev.W, lev.W0, lev.Conv, lev.Diss = mk(), mk(), mk(), mk()
	lev.Res, lev.Lapl, lev.Smooth, lev.RHS = mk(), mk(), mk(), mk()
	lev.Forcing, lev.WSaved, lev.Corr = mk(), mk(), mk()
	lev.Pres, lev.Num, lev.Den, lev.Lam, lev.Dt = mkf(), mkf(), mkf(), mkf(), mkf()
}

// InitUniform sets every level to the freestream state (owned and ghost).
func (s *Solver) InitUniform() {
	for _, lev := range s.Levels {
		for p := range lev.W {
			for i := range lev.W[p] {
				lev.W[p][i] = s.P.Freestream
			}
		}
	}
}

// GatherSolution reassembles the global fine-grid solution from the owned
// ranges (for output and verification).
func (s *Solver) GatherSolution() []euler.State {
	lev := s.Levels[0]
	out := make([]euler.State, lev.M.NV())
	for p := 0; p < s.NProc; p++ {
		for li, g := range lev.Dist.L2G[p] {
			out[g] = lev.W[p][li]
		}
	}
	return out
}
