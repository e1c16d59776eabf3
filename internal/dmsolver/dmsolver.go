// Package dmsolver is the distributed-memory implementation of EUL3D,
// mirroring the paper's Intel Touchstone Delta port. The mesh (and each
// coarser mesh of a multigrid sequence) is partitioned across P simulated
// processors, and the port is the paper's inspector/executor
// transformation: the *same* loop bodies as the shared-memory solver — the
// fused edge and face kernels of euler/kernels_soa.go the pooled engine
// runs over each worker's owned vertices, called here on each processor's
// partition-local edge and face lists, and for the vertex sweeps the reference functions of
// euler/ops.go on its owned range — with PARTI gather/scatter executors
// inserted at exactly the points where off-processor data is produced or
// consumed:
//
//   - flow variables are gathered into ghost slots once per Runge-Kutta
//     stage (the paper: "We can obtain all of the off-processor flow
//     variables needed at the beginning of the step");
//   - edge-loop accumulations (convective and dissipative residuals,
//     Laplacians, sensor sums, spectral radii) land in ghost slots and are
//     scatter-added back to their owners, everything one sweep accumulated
//     in one message per neighbour;
//   - the residual averaging accumulates nothing off-processor: an edge is
//     computed by the owner of its first endpoint, so the flow-variable
//     schedule ghosts forward neighbours only, and a second, incremental
//     schedule (the halo) ghosts the back neighbours; with both, each Jacobi
//     sweep is one gather of the iterate and one owner-computes vertex loop
//     over the rows of the owned vertices' adjacency, in global edge order —
//     the same sum, addition for addition, on every partition;
//   - multigrid transfers use incremental schedules on top of those two,
//     fetching only addresses not already ghosted, and every exchange that
//     crosses several schedules' slots goes through their merged schedule,
//     one message per neighbour (the paper's Section 4.3, both halves).
//
// The package is one program and one executor. The program (ops.go) is
// the node program of the Delta port, stated once: which compute phase runs
// when and which exchange separates it from the next. It holds no
// arithmetic, so every euler.Params field is honoured here by construction.
// The executor (driver.go) runs it on the host's cores: it maps the P
// simulated processors onto W pooled workers in contiguous blocks, and
// completes each exchange as the block's send halves, a barrier, its
// receive halves, a barrier. Cycle, the one cycle Run drives, runs
// W = min(P, GOMAXPROCS) — one worker while a fault plan is attached, so
// that the plan strikes the same sends on every run. The answers do not
// depend on W, bit for bit; CycleConcurrent runs W = P, a worker per node as
// on the Delta, and is not a run mode but the reference that claim is
// checked against: the benchmark's bitwise gate and the tests' W = P run.
//
// On one processor the answers are bitwise those of the sequential solver;
// across partition boundaries the edge sweeps' per-vertex sums reassociate
// (local edges, then each peer's partial) and they agree to roundoff, while
// the smoother, given bitwise-equal owned inputs, returns bitwise-equal
// outputs on every partition and processor count. Tests assert all three.
package dmsolver

import (
	"fmt"
	"runtime"
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
// a state array — each scalar it moves rides with the sums of the sweep
// that accumulated it — so the two scalar-led fields always read 0; they
// stay only because the benchmark program still adds them in.
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

	// A processor's local arrays are laid out [owned | edge ghosts | halo
	// ghosts | transfer ghosts], one ghost region per schedule, in the order
	// the schedules were built — each incremental on the ones before it, so a
	// vertex has one slot however many loops reference it.
	//
	// SchedW fills the ghosts of every vertex the local edge and
	// boundary-face loops reference: an edge is computed by the owner of its
	// first endpoint, so these are forward neighbours. EdgeSpan[p] = owned +
	// edge ghosts is the prefix of p's arrays those loops address, and the
	// ghost region their sums are scatter-added home from.
	SchedW   *parti.Schedule
	EdgeSpan []int
	// SchedHalo makes the ghost layer symmetric: it ghosts the back
	// neighbours SchedW leaves out — the first endpoint of a cut edge, on the
	// owner of the second (where that vertex is not an edge ghost already).
	// With both, every neighbour of an owned vertex has a local slot inside
	// SmoothSpan[p] = owned + edge ghosts + halo ghosts, which only the
	// smoother's rows and the transfer operators read.
	SchedHalo  *parti.Schedule
	SmoothSpan []int
	// SchedFine and SchedCoarse are built by the multigrid constructor (nil
	// otherwise, SchedCoarse also on the finest level); their slots are the
	// transfer ghosts, read by restriction and prolongation only. Being
	// incremental they leave out every address one of the schedules above
	// already ghosts — halo slots included — so no transfer travels through
	// one of them alone: see the merged schedules below.
	SchedFine   *parti.Schedule // the finer level's extra ghosts for restriction onto this level (slots live on the finer level)
	SchedCoarse *parti.Schedule // this level's extra ghosts for prolongation from it / the residual scatter onto it

	// The exchanges that cross more than one ghost region run through merged
	// schedules (parti.Merge), one message per neighbour: smoothSched =
	// SchedW + SchedHalo gathers the smoother's operand; restrictSched, on a
	// level with a coarser one below it, = SchedW + SchedHalo + SchedCoarse +
	// the coarser level's SchedFine refreshes every ghost of W the
	// restriction may address; transferSched, on a coarse level, =
	// SchedCoarse + SchedW + SchedHalo brings restricted residuals home and
	// carries the correction out.
	smoothSched, restrictSched, transferSched *parti.Schedule

	// Per-processor topology, local indices into [owned | ghost] arrays.
	Edges  [][][2]int32
	ENorm  [][]geom.Vec3
	BFaces [][]mesh.BFace // vertex indices local
	Vol    [][]float64    // owned only
	// The vertex adjacency of the owned vertices in CSR form: row i of
	// processor p, Adj[p][AdjStart[p][i]:AdjStart[p][i+1]], lists the local
	// slots (all below SmoothSpan[p]) of owned vertex i's neighbours in the
	// order the global edge list meets i's edges. The row is the same
	// sequence of vertices whichever processor owns i, and its length is i's
	// true degree.
	AdjStart, Adj [][]int32

	// Per-processor solution and scratch arrays, AoS, each as long as the
	// span it is addressed over: W the whole local array (GS.TotalSize), as
	// are, on a coarse level, Corr and Forcing, which the transfer operators
	// address; Res, Smooth and the finest level's Corr the smoothing span;
	// W0, RHS, WSaved and Dt the owned prefix. Forcing and WSaved, which only
	// a coarse level has, are nil on the finest. W is the authoritative
	// solution at every stage.
	W, W0, Res, Smooth, RHS, Forcing, WSaved, Corr [][]euler.State
	Dt                                             [][]float64

	// The kernel context of each processor, over its edge span: a Disc on
	// the local view (Edges[p], ENorm[p], BFaces[p], Vol[p]), which keeps the
	// vertex terms p, 1/rho and c of W that every refreshW recomputes, and
	// the edge-loop accumulators — the convective, Laplacian and dissipative
	// sums, and Num, Den, Lam, the Disc's own sensor and spectral-radius
	// scratch. The kernels take W and the sums as blocks and the exchanges
	// take them as the state arrays they are: a block is one State record a
	// vertex, so there is no copy of either. Of the Disc's copy of Params
	// the kernels read Gas, K2, K4 and Freestream; CFL, which the recovery
	// orchestrator changes, is only ever read from Solver.P. Conv is
	// exported for cmd/bench's exchange probe, which scatter-adds it through
	// SchedW between cycles; every sweep zeroes it before use.
	disc          []*euler.Disc
	Conv          [][]euler.State
	lapl, diss    [][]euler.State
	Num, Den, Lam [][]float64
	ident         []int32 // 0, 1, 2, ...: a prefix lists all of a processor's edges, or faces, for a kernel

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

	prior   []float64    // residual history a Restore carried over: Run picks up at cycle len(prior)
	partial []float64    // per-processor terms of the residual-norm reduction
	hooks   []cycleHooks // per processor: the cycle's hooks bound to the block it leads (cycle)

	// workers is the W of Cycle: min(NProc, GOMAXPROCS at construction).
	// execs holds the cycle executors built so far, one per W (driver.go).
	workers int
	execs   []*executor

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
	s := &Solver{P: p, NProc: nproc, Gamma: gamma, Fabric: simnet.New(nproc), partial: make([]float64, nproc), hooks: make([]cycleHooks, nproc),
		workers: min(nproc, runtime.GOMAXPROCS(0))}

	// Global preprocessing: the transfer operators between levels (index l:
	// between level l-1, fine, and l, coarse), built side by side. Each
	// level's transfer-build span is the whole concurrent build.
	bt := time.Now()
	restrictOps, prolongOps, err := multigrid.Transfers(meshes)
	if err != nil {
		return nil, fmt.Errorf("dmsolver: %w", err)
	}
	for l := 1; l < len(meshes); l++ {
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
			op := restrictOps[l]
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
		rop, pop := restrictOps[l], prolongOps[l]

		// Restriction: coarse-owned vertices reference fine globals.
		coarse.SchedFine, _ = parti.BuildIncremental(fine.GS, transferRefs(rop, coarse.Dist))

		// Prolongation / residual scatter: fine-owned vertices reference
		// coarse globals.
		coarse.SchedCoarse, _ = parti.BuildIncremental(coarse.GS, transferRefs(pop, fine.Dist))
		coarse.transferSched = parti.Merge(coarse.SchedCoarse, coarse.SchedW, coarse.SchedHalo)
		// fine's own SchedCoarse (nil on the finest level) was built when fine
		// was the coarse level of the previous round.
		fine.restrictSched = parti.Merge(fine.SchedW, fine.SchedHalo, fine.SchedCoarse, coarse.SchedFine)

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

// transferRefs returns, per processor, the source addresses (global) of the
// rows of op whose target vertex the processor owns in targets.
func transferRefs(op *multigrid.TransferOp, targets *parti.Dist) [][]int32 {
	refs := make([][]int32, targets.NProc)
	for p := range refs {
		refs[p] = make([]int32, 0, 4*targets.Count(p))
		for _, g := range targets.L2G[p] {
			refs[p] = append(refs[p], op.Addr[g][:]...)
		}
	}
	return refs
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

// buildLevel partitions one mesh's topology across processors. The global
// edge list is walked three times — a count, the inspector's references,
// the executor's localized lists — and every per-processor array is sized
// from the count, so nothing here grows by append.
func buildLevel(m *mesh.Mesh, part []int32, nproc int) (*Level, error) {
	dist, err := parti.NewDist(part, nproc)
	if err != nil {
		return nil, err
	}
	// Processors may own no vertices of a level: the paper's coarsest grid
	// had far fewer points than the Delta had nodes ("smaller data sets
	// spread over an equally large number of processors"). Such processors
	// simply idle through that level's loops: no edges, no rows, no halo.
	lev := &Level{M: m, Part: part, Dist: dist, GS: parti.NewGhostSpace(dist)}

	// Count: each edge is computed by the owner of its first endpoint, each
	// boundary face by the owner of its first vertex. fwd[p] counts p's
	// off-processor references (second endpoints, face vertices), back[q]
	// the cut edges whose second endpoint q owns, pos[v] the degree of v.
	ne, nbf := make([]int, nproc), make([]int, nproc)
	fwd, back := make([]int, nproc), make([]int, nproc)
	pos := make([]int32, m.NV())
	for _, e := range m.Edges {
		p, q := part[e[0]], part[e[1]]
		ne[p]++
		pos[e[0]]++
		pos[e[1]]++
		if p != q {
			fwd[p]++
			back[q]++
		}
	}
	for i := range m.BFaces {
		f := &m.BFaces[i]
		p := part[f.V[0]]
		nbf[p]++
		for _, v := range f.V[1:] {
			if part[v] != p {
				fwd[p]++
			}
		}
	}

	// Inspector: each processor's off-processor references, in the order its
	// edge and then its boundary-face loop makes them (owned ones, which the
	// schedule builder would hash out, are not listed), and the back
	// references of the symmetric halo: the first endpoint of every cut
	// edge, seen from the owner of the second.
	refs, haloRefs := make([][]int32, nproc), make([][]int32, nproc)
	for p := range refs {
		refs[p], haloRefs[p] = make([]int32, 0, fwd[p]), make([]int32, 0, back[p])
	}
	for _, e := range m.Edges {
		if p, q := part[e[0]], part[e[1]]; p != q {
			refs[p] = append(refs[p], e[1])
			haloRefs[q] = append(haloRefs[q], e[0])
		}
	}
	for i := range m.BFaces {
		f := &m.BFaces[i]
		p := part[f.V[0]]
		for _, v := range f.V[1:] {
			if part[v] != p {
				refs[p] = append(refs[p], v)
			}
		}
	}
	lev.SchedW = parti.BuildSchedule(lev.GS, refs)
	lev.EdgeSpan = spans(lev.GS, nproc)
	lev.SchedHalo = parti.BuildSchedule(lev.GS, haloRefs)
	lev.SmoothSpan = spans(lev.GS, nproc)
	lev.smoothSched = parti.Merge(lev.SchedW, lev.SchedHalo)

	// Owned dual volumes, and the rows of the owned vertices' adjacency:
	// pos[v] turns from v's degree into the cursor of v's row in its
	// owner's Adj.
	lev.Vol = make([][]float64, nproc)
	lev.AdjStart, lev.Adj = make([][]int32, nproc), make([][]int32, nproc)
	for p := 0; p < nproc; p++ {
		n := dist.Count(p)
		lev.Vol[p], lev.AdjStart[p] = make([]float64, n), make([]int32, n+1)
		at := int32(0)
		for li, g := range dist.L2G[p] {
			lev.Vol[p][li] = m.Vol[g]
			lev.AdjStart[p][li] = at
			at, pos[g] = at+pos[g], at
		}
		lev.AdjStart[p][n] = at
		lev.Adj[p] = make([]int32, at)
	}

	// Executor-side topology with localized addresses: one pass over the
	// global edge list fills p's edge list and both endpoints' rows, so a
	// row lists its vertex's neighbours in global edge order on whichever
	// processor it lives.
	lev.Edges = make([][][2]int32, nproc)
	lev.ENorm = make([][]geom.Vec3, nproc)
	lev.BFaces = make([][]mesh.BFace, nproc)
	for p := 0; p < nproc; p++ {
		lev.Edges[p] = make([][2]int32, 0, ne[p])
		lev.ENorm[p] = make([]geom.Vec3, 0, ne[p])
		lev.BFaces[p] = make([]mesh.BFace, 0, nbf[p])
	}
	for ei, e := range m.Edges {
		p, q := int(part[e[0]]), int(part[e[1]])
		a, b := dist.Local[e[0]], lev.GS.Localize(p, e[1])
		lev.Edges[p] = append(lev.Edges[p], [2]int32{a, b})
		lev.ENorm[p] = append(lev.ENorm[p], m.EdgeNorm[ei])
		lev.Adj[p][pos[e[0]]] = b
		pos[e[0]]++
		lev.Adj[q][pos[e[1]]] = lev.GS.Localize(q, e[0])
		pos[e[1]]++
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
	return lev, nil
}

// spans returns every processor's current local-array size in gs: owned plus
// the ghost slots allocated so far.
func spans(gs *parti.GhostSpace, nproc int) []int {
	n := make([]int, nproc)
	for p := range n {
		n[p] = gs.TotalSize(p)
	}
	return n
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
	edge, span := func(p int) int { return lev.EdgeSpan[p] }, func(p int) int { return lev.SmoothSpan[p] }
	total, count := lev.GS.TotalSize, lev.Dist.Count
	lev.W = states(total)
	lev.Conv, lev.lapl, lev.diss = states(edge), states(edge), states(edge)
	lev.Res, lev.Smooth, lev.Corr = states(span), states(span), states(span)
	lev.W0, lev.RHS = states(count), states(count)
	if lev.Index > 0 {
		lev.Corr, lev.Forcing, lev.WSaved = states(total), states(total), states(count)
	}

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
