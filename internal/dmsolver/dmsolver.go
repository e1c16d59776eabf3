// Package dmsolver is the distributed-memory implementation of EUL3D,
// mirroring the paper's Intel Touchstone Delta port. The mesh (and each
// coarser mesh of a multigrid sequence) is partitioned across P simulated
// processors, and the port is the paper's inspector/executor
// transformation: the *same* loop bodies as the shared-memory solver — the
// fused edge and face kernels of euler/kernels_soa.go the pooled engine
// runs per color, called here on each processor's partition-local edge and
// face lists, and for the vertex sweeps the reference functions of
// euler/ops.go on its owned range — with PARTI gather/scatter executors
// inserted at exactly the points where off-processor data is produced or
// consumed:
//
//   - flow variables are gathered into ghost slots once per Runge-Kutta
//     stage (the paper: "We can obtain all of the off-processor flow
//     variables needed at the beginning of the step");
//   - edge-loop accumulations (convective and dissipative residuals,
//     Laplacians, sensor sums, spectral radii, smoothing sums) land in
//     ghost slots and are scatter-added back to their owners, everything
//     one sweep accumulated in one message per neighbour;
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
// counts once, whatever it carries. Every exchange of the program is led by
// a state array or an SoA block — each scalar it moves rides with the sums
// of the sweep that accumulated it — so the two scalar-led fields, kept for
// the programs that add the four up, always read 0.
type CommCounters struct {
	GatherState  int64 // gathers
	ScatterState int64 // scatter-adds
	GatherFloat  int64 // always 0: no gather is scalars-only
	ScatterFloat int64 // always 0: no scatter-add is scalars-only
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

	// Per-processor solution and scratch arrays, AoS, each as long as the
	// span it is addressed over: W, Corr and Forcing the whole local array
	// [owned | edge ghosts | transfer ghosts] (GS.TotalSize), Res and Smooth
	// the edge span, W0, RHS, WSaved and Dt the owned prefix; Forcing and
	// WSaved, which only a coarse level has, are nil on the finest. W is the
	// authoritative solution at every stage.
	W, W0, Res, Smooth, RHS, Forcing, WSaved, Corr [][]euler.State
	Dt                                             [][]float64
	// Conv is read and written by nothing in the solver (the convective sums
	// live in convS): a whole-local-array scratch kept for the exchange
	// probe of cmd/bench, which scatter-adds it through SchedW.
	Conv [][]euler.State

	// The kernel context of each processor, over its edge span: a Disc on
	// the local view (Edges[p], ENorm[p], BFaces[p], Vol[p]), which keeps the
	// vertex terms p, 1/rho and c of wS; wS, the SoA copy of W the sweeps
	// read, reloaded by every refreshW; and the edge-loop accumulators —
	// three blocks and Num, Den, Lam, the Disc's own sensor and
	// spectral-radius scratch. Of the Disc's copy of Params the kernels read
	// Gas, K2, K4 and Freestream; CFL, which the recovery orchestrator
	// changes, is only ever read from Solver.P.
	disc                    []*euler.Disc
	wS, convS, laplS, dissS []*euler.StateSoA
	Num, Den, Lam           [][]float64
	ident                   []int32 // 0, 1, 2, ...: a prefix lists all of a processor's edges, or faces, for a kernel

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
		lev.alloc(nproc, p)
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

// alloc sizes the per-processor arrays, each to the span it is addressed
// over, and builds the kernel contexts.
func (lev *Level) alloc(nproc int, params euler.Params) {
	states := func(size func(p int) int) [][]euler.State {
		a := make([][]euler.State, nproc)
		for p := range a {
			a[p] = make([]euler.State, size(p))
		}
		return a
	}
	blocks := func() []*euler.StateSoA {
		a := make([]*euler.StateSoA, nproc)
		for p := range a {
			a[p] = block(lev.EdgeSpan[p])
		}
		return a
	}
	span, total, count := func(p int) int { return lev.EdgeSpan[p] }, lev.GS.TotalSize, lev.Dist.Count
	lev.W, lev.Corr, lev.Conv = states(total), states(total), states(total)
	lev.Res, lev.Smooth = states(span), states(span)
	lev.W0, lev.RHS = states(count), states(count)
	if lev.Index > 0 {
		lev.Forcing, lev.WSaved = states(total), states(count)
	}
	lev.wS, lev.convS, lev.laplS, lev.dissS = blocks(), blocks(), blocks(), blocks()

	lev.disc = make([]*euler.Disc, nproc)
	lev.Num, lev.Den, lev.Lam, lev.Dt = make([][]float64, nproc), make([][]float64, nproc), make([][]float64, nproc), make([][]float64, nproc)
	longest := 0
	for p := range lev.disc {
		view := &mesh.Mesh{Edges: lev.Edges[p], EdgeNorm: lev.ENorm[p], BFaces: lev.BFaces[p], Vol: lev.Vol[p]}
		d := euler.NewViewDisc(view, params, lev.EdgeSpan[p])
		lev.disc[p], lev.Num[p], lev.Den[p], lev.Lam[p] = d, d.Sensor(), d.Den(), d.Lam()
		lev.Dt[p] = make([]float64, lev.Dist.Count(p))
		longest = max(longest, len(lev.Edges[p]), len(lev.BFaces[p]))
	}
	lev.ident = make([]int32, longest)
	for i := range lev.ident {
		lev.ident[i] = int32(i)
	}
}

// block returns an SoA block of exactly n vertices (euler.NewStateSoA
// reserves a quarter more for adaptation epochs, which a partition never
// sees).
func block(n int) *euler.StateSoA {
	b, s := make([]float64, euler.NVar*n), &euler.StateSoA{}
	for k := range s.Comp {
		s.Comp[k] = b[k*n : (k+1)*n : (k+1)*n]
	}
	return s
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
