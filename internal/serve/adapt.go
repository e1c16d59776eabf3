package serve

import (
	"context"
	"fmt"

	"eul3d/internal/adapt"
	"eul3d/internal/mesh"
	"eul3d/internal/trace"
)

// adaptDriver prepares an adaptive job (Spec.Adapt != nil). It
// deliberately bypasses the engine cache: an adaptive run refines its
// mesh mid-flight, so a cached engine would be poisoned for every later
// lease. The engine is built fresh, rebuilt in place by the driver after
// every epoch, and closed when the run ends. Drain and restart carry the
// current (adapted) mesh next to the checkpoint — a plain solution
// checkpoint can no longer describe the run once the mesh has changed. A
// drained run's resume is bitwise-exact on both engines: the pooled
// engine's layout is a function of the current mesh alone, so the engine
// built fresh on the adapted mesh is the one the uninterrupted run rebuilt
// onto it.
func (s *Scheduler) adaptDriver(_ context.Context, j *Job, ms []*mesh.Mesh, _ *trace.Track) (executor, error) {
	p := j.Spec.Params()
	opts := adapt.Options{
		Params:    p,
		Engine:    j.Spec.Engine,
		Workers:   j.Spec.Workers,
		Steps:     j.Spec.Cycles,
		Tolerance: j.Spec.Tol,
		Budget:    j.Spec.Adapt.Budget,
		Interval:  j.Spec.Adapt.Interval,
		MaxEpochs: j.Spec.Adapt.Epochs,
		Indicator: j.Spec.Adapt.Indicator,
		Frac:      j.Spec.Adapt.Frac,
		Trace:     s.cfg.Trace,
		Progress:  j.progress,
	}
	if r := j.resume; r != nil {
		// With its own mesh (drain or periodic checkpoint) the driver
		// restarts exactly where the interrupted run stopped, on the adapted
		// mesh. A handed-off plain checkpoint is resumable only while the
		// run had not yet refined — its solution must still fit the spec's
		// mesh. Past the first epoch the mesh travels in the adapt sidecar,
		// which a coordinator handoff does not carry.
		m, a, ck := r.mesh, r.adapt, r.ck
		if m == nil {
			if len(ck.Sol) != ms[0].NV() {
				return executor{}, fmt.Errorf(
					"serve: adapted checkpoint (%d states) no longer fits the spec mesh (%d points); adaptive jobs cannot be handed off mid-adaptation",
					len(ck.Sol), ms[0].NV())
			}
			m, a = ms[0], &adaptSidecar{Dt: p.GlobalDt, StepsLeft: j.Spec.Cycles - ck.Cycle}
		}
		opts.Resume = &adapt.Snapshot{
			Mesh:         m,
			W:            ck.Sol,
			History:      ck.History,
			Step:         ck.Cycle,
			EpochsDone:   a.EpochsDone,
			Dt:           a.Dt,
			StepsLeft:    a.StepsLeft,
			SinceEpoch:   a.SinceEpoch,
			CellsRefined: a.CellsRefined,
		}
	} else {
		opts.Mesh = ms[0]
		if sc := j.Spec.scenario(); sc != nil {
			opts.Init = sc.InitialState(ms[0]) // otherwise the freestream
		}
	}
	if s.periodic() {
		opts.CheckpointEvery = s.cfg.CheckpointEvery
		opts.OnCheckpoint = func(snap *adapt.Snapshot) error {
			s.persistRunning(j, adaptSnapshot(j, snap))
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
			return ran{res: &lr, mesh: res.Mesh, snap: adaptSnapshot(j, res.Snap)}, nil
		},
	}, nil
}

// adaptSnapshot shapes the driver's resume point for persist: the
// solution as a checkpoint, the current (adapted) mesh, and the
// adaptation counters. A nil driver snapshot stays nil.
func adaptSnapshot(j *Job, snap *adapt.Snapshot) *snapshot {
	if snap == nil {
		return nil
	}
	return &snapshot{
		ck:   j.Spec.meta().Checkpoint(snap.History, snap.W),
		mesh: snap.Mesh,
		adapt: &adaptSidecar{
			EpochsDone:   snap.EpochsDone,
			Dt:           snap.Dt,
			StepsLeft:    snap.StepsLeft,
			SinceEpoch:   snap.SinceEpoch,
			CellsRefined: snap.CellsRefined,
		},
	}
}
