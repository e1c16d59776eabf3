// Package trace is the flight-recorder tracing subsystem: a span/event
// tracer built from per-track preallocated ring buffers, so the enabled
// hot path is lock-light and allocation-free (the solver engines assert
// zero allocations per traced step) and the disabled path is a nil check.
// Every track keeps the *last* ringCap events — the tracer is inherently a
// flight recorder, and a dump taken at the moment of an incident (solver
// divergence, fault recovery, job failure) contains the events leading up
// to it.
//
// The model follows the Chrome trace-event format the exporter emits:
// a process holds named tracks (threads in Chrome's terms — one per solver
// worker, simulated processor, or service job), each track holds complete
// spans (a phase name, a start, a duration, one integer argument) and
// instant events. Phase names are interned up front into PhaseIDs so the
// hot path records only integers.
//
// Writers: a track is designed for one writer at a time — a worker owns
// its track, a job's lifecycle events are recorded by whichever goroutine
// holds the job at that moment (the scheduler's synchronization provides
// the happens-before edges). A short per-track spinlock-free mutex still
// guards the slot writes so that exporters can snapshot rings while a
// solve is in flight without data races.
package trace

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"time"
)

// PhaseID is an interned phase name.
type PhaseID int32

// Event kinds.
const (
	KindSpan    uint8 = iota // complete span: [TS, TS+Dur)
	KindInstant              // point event
)

// Event is one recorded trace event. Timestamps are nanoseconds since the
// tracer's start time.
type Event struct {
	TS    int64 // ns since tracer start
	Dur   int64 // span duration in ns (0 for instants)
	Arg   int64 // one free integer argument (stage, color, level, proc...)
	Phase PhaseID
	Kind  uint8
}

// Track is one timeline: a preallocated ring keeping the last cap events.
type Track struct {
	tr   *Tracer
	id   int
	name string

	mu   sync.Mutex
	ring []Event
	pos  uint64 // total events ever written
}

// Tracer owns the tracks and the phase name table.
type Tracer struct {
	start   time.Time
	ringCap int

	mu       sync.Mutex
	tracks   []*Track
	phases   []string
	phaseIDs map[string]PhaseID
	refused  int // track registrations refused past DefaultMaxTracks
}

// DefaultMaxTracks bounds the number of tracks a tracer will register, so
// that per-job tracks in a long-lived server cannot grow without bound.
// Registrations past the bound return nil (a nil Track drops its events).
const DefaultMaxTracks = 512

// New builds a tracer whose tracks each keep the last ringCap events
// (minimum 16). The start time is taken now; all event timestamps are
// relative to it.
func New(ringCap int) *Tracer {
	return NewStartingAt(ringCap, time.Now())
}

// NewStartingAt is New with an explicit start time — the timestamp origin
// for every event. Tests use a fixed origin to make exports deterministic.
func NewStartingAt(ringCap int, start time.Time) *Tracer {
	if ringCap < 16 {
		ringCap = 16
	}
	return &Tracer{
		start:    start,
		ringCap:  ringCap,
		phaseIDs: make(map[string]PhaseID),
	}
}

// Start returns the tracer's timestamp origin.
func (t *Tracer) Start() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.start
}

// Track registers (or looks up) a named track with the default ring
// capacity. Returns nil — which silently drops events — on a nil tracer or
// once the track bound is reached.
func (t *Tracer) Track(name string) *Track { return t.TrackCap(name, 0) }

// TrackCap is Track with an explicit ring capacity (0 selects the
// tracer's default; small caps suit short-lived tracks like service jobs).
func (t *Tracer) TrackCap(name string, ringCap int) *Track {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, tk := range t.tracks {
		if tk.name == name {
			return tk
		}
	}
	if len(t.tracks) >= DefaultMaxTracks {
		t.refused++
		return nil
	}
	if ringCap <= 0 {
		ringCap = t.ringCap
	}
	if ringCap < 16 {
		ringCap = 16
	}
	tk := &Track{tr: t, id: len(t.tracks), name: name, ring: make([]Event, ringCap)}
	t.tracks = append(t.tracks, tk)
	return tk
}

// Phase interns a phase name. Safe to call repeatedly; 0 on a nil tracer.
func (t *Tracer) Phase(name string) PhaseID {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.phaseIDs[name]; ok {
		return id
	}
	id := PhaseID(len(t.phases))
	t.phases = append(t.phases, name)
	t.phaseIDs[name] = id
	return id
}

// PhaseName resolves an interned id ("?" when unknown).
func (t *Tracer) PhaseName(id PhaseID) string {
	if t == nil {
		return "?"
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(id) < 0 || int(id) >= len(t.phases) {
		return "?"
	}
	return t.phases[id]
}

// write appends one event to the ring, overwriting the oldest when full.
func (tk *Track) write(ev Event) {
	if tk == nil {
		return
	}
	tk.mu.Lock()
	tk.ring[tk.pos%uint64(len(tk.ring))] = ev
	tk.pos++
	tk.mu.Unlock()
}

// Span records a complete span [from, to) with one integer argument. The
// call performs no heap allocations.
func (tk *Track) Span(ph PhaseID, from, to time.Time, arg int64) {
	if tk == nil {
		return
	}
	tk.write(Event{
		TS:    from.Sub(tk.tr.start).Nanoseconds(),
		Dur:   to.Sub(from).Nanoseconds(),
		Arg:   arg,
		Phase: ph,
		Kind:  KindSpan,
	})
}

// Instant records a point event. The call performs no heap allocations.
func (tk *Track) Instant(ph PhaseID, at time.Time, arg int64) {
	if tk == nil {
		return
	}
	tk.write(Event{
		TS:    at.Sub(tk.tr.start).Nanoseconds(),
		Arg:   arg,
		Phase: ph,
		Kind:  KindInstant,
	})
}

// Name returns the track's registered name ("" for nil).
func (tk *Track) Name() string {
	if tk == nil {
		return ""
	}
	return tk.name
}

// Len returns how many events the track currently retains.
func (tk *Track) Len() int {
	if tk == nil {
		return 0
	}
	tk.mu.Lock()
	defer tk.mu.Unlock()
	return tk.retainedLocked()
}

func (tk *Track) retainedLocked() int {
	if tk.pos < uint64(len(tk.ring)) {
		return int(tk.pos)
	}
	return len(tk.ring)
}

// Events snapshots the retained events, oldest first.
func (tk *Track) Events() []Event {
	if tk == nil {
		return nil
	}
	tk.mu.Lock()
	defer tk.mu.Unlock()
	n := tk.retainedLocked()
	out := make([]Event, n)
	cap64 := uint64(len(tk.ring))
	first := tk.pos - uint64(n)
	for i := 0; i < n; i++ {
		out[i] = tk.ring[(first+uint64(i))%cap64]
	}
	return out
}

// Tracks snapshots the registered tracks in registration order.
func (t *Tracer) Tracks() []*Track {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*Track(nil), t.tracks...)
}

// Refused reports how many track registrations were dropped at the bound.
func (t *Tracer) Refused() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.refused
}

// WriteChromeFile dumps the trace as a Chrome trace-event JSON file
// (loadable in Perfetto or chrome://tracing). Writes are atomic enough for
// incident dumps: a temp file renamed into place.
func (t *Tracer) WriteChromeFile(path string) error {
	if t == nil {
		return fmt.Errorf("trace: nil tracer")
	}
	var b strings.Builder
	if err := t.WriteChrome(&b); err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(b.String()), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
