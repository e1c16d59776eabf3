// Package serve turns the steady-state solver into a multi-tenant
// service: a bounded-queue job scheduler with priorities, deadlines,
// admission control and cooperative cancellation; an engine cache that
// keys prebuilt solver.Steady engines (mesh + discretization + colorings +
// parked worker pool) by mesh-content hash, so concurrent requests for the
// same mesh share one build and repeat requests pay zero setup; and a
// worker-budget governor that caps the total pooled workers running at any
// instant across concurrent shared-memory jobs. cmd/eul3dd exposes the
// scheduler over HTTP.
//
// The paper's workflow was batch — preprocess once, solve once. This
// package is the first layer that treats a solve as a request: engines are
// long-lived and shared, jobs are queued, observed mid-flight, cancelled,
// checkpointed on drain and resumed on restart. Per-job results remain
// bitwise deterministic: an engine is leased to exactly one job at a time
// and Reset (or Restore) before every run.
package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"

	"eul3d/internal/adapt"
	"eul3d/internal/euler"
	"eul3d/internal/mesh"
	"eul3d/internal/meshgen"
	"eul3d/internal/meshio"
	"eul3d/internal/runloop"
	"eul3d/internal/scenario"
	"eul3d/internal/solver"
	"eul3d/internal/store"
)

// Engine kinds selectable per job: solver's.
const (
	KindSingle = solver.KindSingle
	KindSM     = solver.KindSM
	KindMG     = solver.KindMG
	KindSMMG   = solver.KindSMMG
)

// MeshSpec names the mesh a job runs on: a generated bump-channel mesh
// (NX/NY/NZ/Seed, the repository's standard geometry), a mesh file
// written by cmd/meshgen (Path; Path is a per-level prefix for multigrid
// kinds, as in eul3d -mesh-prefix), or — the upload-once path — the
// sha256 of mesh bytes previously PUT to the node's artifact store
// (Hash). The engine cache keys on the mesh *content*, not on this
// spec, so a generated mesh and an identical upload share an engine; a
// repeat of a generator, scenario or hash spec finds that engine by name
// without building its mesh again (meshSource).
type MeshSpec struct {
	NX   int    `json:"nx,omitempty"`
	NY   int    `json:"ny,omitempty"`
	NZ   int    `json:"nz,omitempty"`
	Seed int64  `json:"seed,omitempty"`
	Path string `json:"path,omitempty"`
	Hash string `json:"hash,omitempty"`
}

// JobSpec is one solve request.
type JobSpec struct {
	Mesh     MeshSpec `json:"mesh"`
	Mach     float64  `json:"mach"`
	AlphaDeg float64  `json:"alpha"`

	// Scenario names a preset from internal/scenario. It replaces the mesh
	// spec, Mach/alpha and numerical parameters wholesale (the two are
	// mutually exclusive), defaults Cycles/Tol to the preset's values, and
	// makes the job start from the preset's initial state instead of the
	// freestream. The response carries the preset's diagnostics.
	Scenario string `json:"scenario,omitempty"`

	Engine  string `json:"engine,omitempty"`  // single | sm | mg | smmg (default single)
	Workers int    `json:"workers,omitempty"` // pooled kinds: worker-pool size (default 2)
	Levels  int    `json:"levels,omitempty"`  // multigrid kinds: grid levels (default 3)
	Cycle   string `json:"cycle,omitempty"`   // multigrid kinds: "v" or "w" (default "w")

	Cycles int     `json:"cycles"`        // MaxCycles for the run
	Tol    float64 `json:"tol,omitempty"` // relative residual tolerance (0 = run all cycles)

	// Adapt, when set, makes the job an adaptive solve (internal/adapt):
	// the mesh is refined where the error indicator concentrates and the
	// engine rebuilt incrementally between epochs. Adaptive jobs bypass
	// the engine cache — their mesh mutates mid-run, so a cached engine
	// could never be shared — and require a single-grid engine.
	Adapt *AdaptSpec `json:"adapt,omitempty"`

	Priority   int   `json:"priority,omitempty"`    // higher runs first; FIFO within a priority
	DeadlineMS int64 `json:"deadline_ms,omitempty"` // wall-clock budget from submission (0 = none)
}

// AdaptSpec configures the adaptation schedule of an adaptive job. The
// zero value of each field selects the internal/adapt default.
type AdaptSpec struct {
	Budget    int     `json:"budget,omitempty"`    // cell budget (0 = 4x the starting count)
	Interval  int     `json:"interval,omitempty"`  // steps between epochs (default 50)
	Epochs    int     `json:"epochs,omitempty"`    // refinement epochs allowed (default 2)
	Indicator string  `json:"indicator,omitempty"` // density | pressure | residual (default density)
	Frac      float64 `json:"frac,omitempty"`      // fraction of cells marked per epoch (default 0.1)
}

// MaxCyclesLimit caps per-job cycle counts so one request cannot occupy a
// runner indefinitely.
const MaxCyclesLimit = 1 << 20

// Validate normalizes defaults in place and rejects malformed specs.
func (s *JobSpec) Validate() error {
	var sc *scenario.Scenario
	if s.Scenario != "" {
		var err error
		if sc, err = scenario.Get(s.Scenario); err != nil {
			return err
		}
		if s.Mesh != (MeshSpec{}) {
			return fmt.Errorf("serve: scenario %q and an explicit mesh are mutually exclusive", s.Scenario)
		}
		if s.Mach != 0 || s.AlphaDeg != 0 {
			return fmt.Errorf("serve: scenario %q fixes the flow state; mach/alpha must be unset", s.Scenario)
		}
		if s.Cycles == 0 {
			s.Cycles = sc.Steps
		}
		if s.Tol == 0 {
			s.Tol = sc.Tol
		}
	}
	if s.Engine == "" {
		s.Engine = KindSingle
	}
	switch s.Engine {
	case KindSingle, KindMG:
		s.Workers = 0
	case KindSM, KindSMMG:
		if s.Workers == 0 {
			s.Workers = 2
		}
		if s.Workers < 1 || s.Workers > 256 {
			return fmt.Errorf("serve: workers %d out of range [1,256]", s.Workers)
		}
	default:
		return fmt.Errorf("serve: unknown engine %q (want single, sm, mg or smmg)", s.Engine)
	}
	switch s.Engine {
	case KindMG, KindSMMG:
		if s.Levels == 0 {
			s.Levels = 3
		}
		minLevels := 2
		if sc != nil {
			// Scenario presets cap the hierarchy depth; unsteady ones force
			// a single level, where a cycle degenerates to exactly one
			// time-accurate fine-grid step.
			if s.Levels > sc.MaxLevels {
				s.Levels = sc.MaxLevels
			}
			minLevels = 1
		}
		if s.Levels < minLevels || s.Levels > 8 {
			return fmt.Errorf("serve: levels %d out of range [%d,8]", s.Levels, minLevels)
		}
		switch s.Cycle {
		case "":
			s.Cycle = "w"
		case "v", "w":
		default:
			return fmt.Errorf("serve: unknown cycle %q (want v or w)", s.Cycle)
		}
	default:
		s.Levels, s.Cycle = 1, ""
	}
	if a := s.Adapt; a != nil {
		if s.Engine != KindSingle && s.Engine != KindSM {
			return fmt.Errorf("serve: adaptation requires a single-grid engine (single or sm), not %q", s.Engine)
		}
		if a.Interval == 0 {
			a.Interval = 50
		}
		if a.Interval < 1 {
			return fmt.Errorf("serve: adapt interval %d must be positive", a.Interval)
		}
		if a.Epochs == 0 {
			a.Epochs = 2
		}
		if a.Epochs < 1 || a.Epochs > 16 {
			return fmt.Errorf("serve: adapt epochs %d out of range [1,16]", a.Epochs)
		}
		if a.Frac == 0 {
			a.Frac = 0.1
		}
		if !(a.Frac > 0 && a.Frac <= 0.5) {
			return fmt.Errorf("serve: adapt frac %g out of range (0,0.5]", a.Frac)
		}
		if a.Indicator == "" {
			a.Indicator = "density"
		}
		if !adapt.ValidIndicator(a.Indicator) {
			return fmt.Errorf("serve: unknown adapt indicator %q (want density, pressure or residual)", a.Indicator)
		}
		if a.Budget < 0 {
			return fmt.Errorf("serve: negative adapt cell budget %d", a.Budget)
		}
	}
	if s.Mesh.Hash != "" {
		if !store.ValidHash(s.Mesh.Hash) {
			return fmt.Errorf("serve: malformed mesh hash %q (want 64 hex chars)", s.Mesh.Hash)
		}
		if s.Mesh.Path != "" || s.Mesh.NX != 0 || s.Mesh.NY != 0 || s.Mesh.NZ != 0 || s.Mesh.Seed != 0 {
			return fmt.Errorf("serve: mesh hash is exclusive with path and generator dimensions")
		}
		if s.Levels != 1 {
			// A hash names exactly one mesh artifact; the multigrid kinds
			// need a coarsening sequence the store does not hold.
			return fmt.Errorf("serve: mesh hash requires a single-grid engine (single or sm)")
		}
	}
	if s.Scenario == "" && s.Mesh.Path == "" && s.Mesh.Hash == "" {
		if s.Mesh.NX < 1 || s.Mesh.NY < 1 || s.Mesh.NZ < 1 {
			return fmt.Errorf("serve: mesh dimensions %dx%dx%d must be positive", s.Mesh.NX, s.Mesh.NY, s.Mesh.NZ)
		}
		if s.Mesh.NX*s.Mesh.NY*s.Mesh.NZ > 1<<22 {
			return fmt.Errorf("serve: mesh %dx%dx%d too large", s.Mesh.NX, s.Mesh.NY, s.Mesh.NZ)
		}
	}
	if s.Cycles < 1 || s.Cycles > MaxCyclesLimit {
		return fmt.Errorf("serve: cycles %d out of range [1,%d]", s.Cycles, MaxCyclesLimit)
	}
	if s.Tol < 0 || math.IsNaN(s.Tol) {
		return fmt.Errorf("serve: negative tolerance %g", s.Tol)
	}
	if s.DeadlineMS < 0 {
		return fmt.Errorf("serve: negative deadline %d", s.DeadlineMS)
	}
	if math.IsNaN(s.Mach) || math.IsInf(s.Mach, 0) || s.Mach < 0 || s.Mach > 20 {
		return fmt.Errorf("serve: implausible Mach %g", s.Mach)
	}
	return nil
}

// gamma returns the multigrid cycle index (0 for single-grid kinds).
func (s *JobSpec) gamma() int {
	switch s.Cycle {
	case "v":
		return 1
	case "w":
		return 2
	}
	return 0
}

// config is the engine a Validated spec runs on, as solver.Open takes it.
func (s *JobSpec) config() solver.Config {
	return solver.Config{Kind: s.Engine, Workers: s.Workers, Gamma: s.gamma()}
}

// pooledWorkers is the worker count charged to the budget governor while
// the job runs (0 for sequential kinds).
func (s *JobSpec) pooledWorkers() int { return s.Workers }

// scenario returns the job's preset, or nil. The spec has been Validated,
// so a lookup failure is impossible; it returns nil defensively anyway.
func (s *JobSpec) scenario() *scenario.Scenario {
	if s.Scenario == "" {
		return nil
	}
	sc, err := scenario.Get(s.Scenario)
	if err != nil {
		return nil
	}
	return sc
}

// Params builds the numerical parameter set for the job.
func (s *JobSpec) Params() euler.Params {
	if sc := s.scenario(); sc != nil {
		return sc.Params()
	}
	return euler.DefaultParams(s.Mach, s.AlphaDeg)
}

// meta is what a checkpoint of this job records about the run.
func (s *JobSpec) meta() runloop.Meta {
	return runloop.Meta{Mach: s.Mach, AlphaDeg: s.AlphaDeg, CFL: s.Params().CFL}
}

// BuildMeshes generates or loads the job's mesh sequence (finest first;
// one level for single-grid kinds).
func (s *JobSpec) BuildMeshes() ([]*mesh.Mesh, error) {
	if sc := s.scenario(); sc != nil {
		return sc.Meshes(s.Levels)
	}
	if s.Mesh.Path != "" {
		out := make([]*mesh.Mesh, s.Levels)
		for l := 0; l < s.Levels; l++ {
			path := s.Mesh.Path
			if s.Levels > 1 {
				path = fmt.Sprintf("%s.L%d.mesh", s.Mesh.Path, l)
			}
			m, err := meshio.LoadMesh(path)
			if err != nil {
				return nil, err
			}
			out[l] = m
		}
		return out, nil
	}
	spec := meshgen.DefaultChannel(s.Mesh.NX, s.Mesh.NY, s.Mesh.NZ, s.Mesh.Seed)
	return meshgen.Sequence(spec, s.Levels)
}

// BuildMeshesFrom is BuildMeshes with an artifact store: a non-empty hash
// names the one mesh to run on instead — the spec's own Mesh.Hash, or the
// adapted mesh a resume record names — whose bytes are decoded as the
// meshio wire format. The caller is expected to hold a Pin on the hash.
func (s *JobSpec) BuildMeshesFrom(art *store.Store, hash string) ([]*mesh.Mesh, error) {
	if hash == "" {
		return s.BuildMeshes()
	}
	data, err := art.Get(hash)
	if err != nil {
		return nil, err
	}
	m, err := meshio.DecodeMesh(data)
	if err != nil {
		return nil, fmt.Errorf("serve: mesh artifact %s: %w", hash[:12], err)
	}
	return []*mesh.Mesh{m}, nil
}

// SpecHash condenses every result-determining field of a validated spec
// — mesh identity, flow state, scenario, engine kind, workers, levels,
// cycle shape, cycle budget, tolerance — into the coalescing key. Two
// concurrent jobs with equal SpecHash would run the identical solve and
// produce bitwise-identical results, so the scheduler runs one and fans
// the result out. Priority and deadline are deliberately excluded: they
// shape scheduling, not the answer.
func (s *JobSpec) SpecHash() string {
	h := sha256.New()
	fmt.Fprintf(h, "scenario=%s|mesh=%s/%s/%d/%d/%d/%d|mach=%x|alpha=%x|engine=%s|workers=%d|levels=%d|cycle=%s|cycles=%d|tol=%x",
		s.Scenario, s.Mesh.Hash, s.Mesh.Path, s.Mesh.NX, s.Mesh.NY, s.Mesh.NZ, s.Mesh.Seed,
		s.Mach, s.AlphaDeg, s.Engine, s.Workers, s.Levels, s.Cycle, s.Cycles, s.Tol)
	if a := s.Adapt; a != nil {
		// The adaptation schedule determines the result (refined mesh and
		// all); folded in only when present so non-adaptive hashes are
		// unchanged from earlier releases.
		fmt.Fprintf(h, "|adapt=%d/%d/%d/%s/%x", a.Budget, a.Interval, a.Epochs, a.Indicator, a.Frac)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// EngineKey identifies a cached engine: the mesh-content + parameter hash,
// the engine kind, and the pool size (which fixes the chunk tables).
type EngineKey struct {
	Sum     [sha256.Size]byte
	Kind    string
	Workers int
}

// String renders a short stable form for logs and metrics labels.
func (k EngineKey) String() string {
	return fmt.Sprintf("%s/%d/%x", k.Kind, k.Workers, k.Sum[:6])
}

// meshSource names a job's meshes by how the request asked for them — a
// generator's dimensions and seed, a scenario preset, or an artifact hash,
// each with its levels — plus everything else Key folds in: flow state,
// scenario, cycle index, engine kind and workers. Each of these names
// meshes that cannot change under it, so equal sources always resolve to
// one key; the converse need not hold (a generated mesh and its upload
// are two sources of one key).
type meshSource struct {
	nx, ny, nz, levels, gamma, workers int
	seed                               int64
	mach, alpha                        uint64 // float bits
	scenario, kind, hash               string
}

// source returns the job's mesh source when it has one. A Path mesh has
// none: the file can change under its name, so its content is hashed on
// every request. hash is the artifact the run starts on (Job.meshHash).
func (s *JobSpec) source(hash string) (meshSource, bool) {
	if s.Mesh.Path != "" {
		return meshSource{}, false
	}
	src := meshSource{
		levels: s.Levels, gamma: s.gamma(), workers: s.Workers,
		mach: math.Float64bits(s.Mach), alpha: math.Float64bits(s.AlphaDeg),
		scenario: s.Scenario, kind: s.Engine, hash: hash,
	}
	if hash == "" {
		src.nx, src.ny, src.nz, src.seed = s.Mesh.NX, s.Mesh.NY, s.Mesh.NZ, s.Mesh.Seed
	}
	return src, true
}

// Key derives the engine-cache key for the given mesh sequence under this
// spec. Two specs that produce bitwise-identical meshes and numerical
// parameters share a key (and therefore an engine).
func (s *JobSpec) Key(ms []*mesh.Mesh) EngineKey {
	h := sha256.New()
	for _, m := range ms {
		hashMesh(h, m)
	}
	p := s.Params()
	// The parameter set contains only numeric fields and a fixed-length
	// stage table; its printed form is a stable content fingerprint. The
	// scenario name is folded in explicitly: a preset also fixes the
	// initial state, which the mesh+params hash cannot see.
	fmt.Fprintf(h, "|params=%v|gamma=%d|scenario=%s", p, s.gamma(), s.Scenario)
	k := EngineKey{Kind: s.Engine, Workers: s.Workers}
	h.Sum(k.Sum[:0])
	return k
}

// hashMesh folds the mesh content — coordinates, connectivity, boundary
// faces and kinds — into h. Derived edge structure is a function of these.
func hashMesh(h hash.Hash, m *mesh.Mesh) {
	var buf [8]byte
	putU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	putU64(uint64(m.NV()))
	for _, x := range m.X {
		putU64(math.Float64bits(x.X))
		putU64(math.Float64bits(x.Y))
		putU64(math.Float64bits(x.Z))
	}
	putU64(uint64(m.NT()))
	for _, t := range m.Tets {
		putU64(uint64(uint32(t[0]))<<32 | uint64(uint32(t[1])))
		putU64(uint64(uint32(t[2]))<<32 | uint64(uint32(t[3])))
	}
	putU64(uint64(len(m.BFaces)))
	for _, f := range m.BFaces {
		putU64(uint64(uint32(f.V[0]))<<32 | uint64(uint32(f.V[1])))
		putU64(uint64(uint32(f.V[2]))<<32 | uint64(f.Kind))
	}
}
