package serve

import (
	"context"

	"eul3d/internal/adapt"
	"eul3d/internal/mesh"
	"eul3d/internal/meshio"
)

// adaptDriver prepares an adaptive job (Spec.Adapt != nil). It
// deliberately bypasses the engine cache: an adaptive run refines its
// mesh mid-flight, so a cached engine would be poisoned for every later
// lease. The engine is built fresh, rebuilt in place by the driver after
// every epoch, and closed when the run ends. With a StateDir each refined
// mesh goes into the artifact store once, at the epoch that made it, and
// every later record names it by hash — so a record alone, on this node
// after a restart or on another after a handoff, says what the run
// resumes on (ms[0], which prepare resolved from that hash). A resume is
// bitwise-exact on both engines: the pooled engine's layout is a function
// of the current mesh alone, so the engine built fresh on the adapted mesh
// is the one the uninterrupted run rebuilt onto it.
func (s *Scheduler) adaptDriver(j *Job, ms []*mesh.Mesh) executor {
	opts := adapt.Options{
		Mesh:      ms[0],
		Params:    j.Spec.Params(),
		Meta:      j.Spec.meta(),
		Engine:    j.Spec.config(),
		Steps:     j.Spec.Cycles,
		Tolerance: j.Spec.Tol,
		Budget:    j.Spec.Adapt.Budget,
		Interval:  j.Spec.Adapt.Interval,
		MaxEpochs: j.Spec.Adapt.Epochs,
		Indicator: j.Spec.Adapt.Indicator,
		Frac:      j.Spec.Adapt.Frac,
		Trace:     s.cfg.Trace,
		Progress:  j.progress,
		Resume:    j.resume,
	}
	if sc := j.Spec.scenario(); sc != nil && j.resume == nil {
		opts.Init = sc.InitialState(ms[0]) // otherwise the freestream
	}
	if s.cfg.StateDir != "" {
		opts.NameMesh = s.putMesh
	}
	if s.periodic() {
		opts.CheckpointEvery = s.cfg.CheckpointEvery
		opts.OnCheckpoint = func(ck *meshio.Checkpoint) error {
			s.persistRunning(j, ck)
			return nil
		}
		s.persistRunning(j, nil)
	}
	return executor{
		exec: func(ctx context.Context) (ran, error) {
			opts.Context = ctx
			res, err := adapt.Run(opts)
			if err != nil {
				return ran{}, err
			}
			s.met.AdaptEpochs.Add(int64(len(res.Epochs)))
			s.met.AdaptCells.Add(int64(res.CellsRefined))
			var rebuildNS int64
			for _, ep := range res.Epochs {
				rebuildNS += ep.RebuildNS
			}
			s.met.AdaptRebuildNS.Add(rebuildNS)
			j.mu.Lock()
			j.adaptEpochs = res.Epochs
			j.mu.Unlock()
			// The job keeps its result for good: hand it a copy of the loop's
			// part, not a pointer into res, which would pin the adapted mesh.
			lr := res.Result
			return ran{res: &lr, mesh: res.Mesh, snap: res.Snap}, nil
		},
	}
}

// putMesh stores an adapted mesh and returns its hash, the name records
// carry. A blob the disk tier failed to keep still serves from memory
// while this process lives: that degrades survivability, not the run.
func (s *Scheduler) putMesh(m *mesh.Mesh) (string, error) {
	b, err := meshio.EncodeMesh(m)
	if err != nil {
		return "", err
	}
	h, err := s.cfg.Store.Put(b)
	if err != nil && h != "" {
		s.cfg.Log.Printf("adapted mesh %s: %v", h[:12], err)
		err = nil
	}
	return h, err
}
