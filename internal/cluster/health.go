package cluster

import (
	"sync"
	"sync/atomic"
	"time"
)

// Status is a node's position in the health state machine.
//
//	Unknown ──beat ok──▶ Healthy ◀──────────────┐
//	   Healthy ──miss──▶ Suspect ──ok──▶ Healthy │ okStreak ≥ needOK
//	   Suspect ──miss×threshold──▶ Unhealthy ────┘
//	   any ──readyz "draining" / operator drain──▶ Draining
//
// Recovery from Unhealthy is gated by the circuit breaker: needOK
// consecutive good beats are required before the node is routable again,
// and every flap (a fresh failure within FlapWindow of the last recovery)
// doubles needOK up to MaxRecoverBeats — a node that oscillates gets
// quarantined for progressively longer.
type Status int32

const (
	StatusUnknown   Status = iota // registered, no beat yet
	StatusHealthy                 // beating; routable unless saturated
	StatusSuspect                 // missed beats below the threshold
	StatusUnhealthy               // missed ≥ threshold, or in breaker quarantine
	StatusDraining                // announced drain (or operator-drained): hand off, don't route
)

func (s Status) String() string {
	switch s {
	case StatusHealthy:
		return "healthy"
	case StatusSuspect:
		return "suspect"
	case StatusUnhealthy:
		return "unhealthy"
	case StatusDraining:
		return "draining"
	}
	return "unknown"
}

// beatResult is one liveness probe's outcome.
type beatResult struct {
	err       error // probe failed (timeout, refused connection, bad response)
	draining  bool  // /readyz answered 503 "draining"
	saturated bool  // /readyz answered 503 "saturated" (alive, queue full)
	load      int   // queued+running the node reported
}

// node is one registry entry. Health fields are guarded by mu; inflight is
// the coordinator's own count of jobs currently placed on the node (its
// work-stealing load signal, fresher than the beat-reported load).
type node struct {
	name   string
	url    string
	client *nodeClient

	inflight atomic.Int64

	mu          sync.Mutex
	status      Status
	manualDrain bool // operator-drained via the API; beats can't revive it
	saturated   bool
	missed      int // consecutive failed beats
	okStreak    int // consecutive good beats while unhealthy
	needOK      int // good beats required to close the breaker
	trips       int // times the breaker opened
	load        int // last beat-reported queued+running
	lastBeat    time.Time
	downSince   time.Time
	recoveredAt time.Time
}

// apply folds one beat into the state machine. It returns the node's new
// status and whether the beat caused a transition (for logging, tracing
// and handoff triggering).
func (n *node) apply(b beatResult, cfg *Config) (st Status, changed bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	prev := n.status
	switch {
	case n.manualDrain:
		n.status = StatusDraining
	case b.err != nil:
		n.missed++
		n.okStreak = 0
		switch {
		case n.missed >= cfg.MissThreshold && n.status != StatusUnhealthy && n.status != StatusDraining:
			if !n.recoveredAt.IsZero() && time.Since(n.recoveredAt) < cfg.FlapWindow {
				n.needOK *= 2
				if n.needOK > cfg.MaxRecoverBeats {
					n.needOK = cfg.MaxRecoverBeats
				}
			} else {
				n.needOK = cfg.RecoverBeats
			}
			n.trips++
			n.downSince = time.Now()
			n.status = StatusUnhealthy
		case n.status == StatusHealthy:
			n.status = StatusSuspect
		}
	case b.draining:
		n.missed, n.okStreak = 0, 0
		n.lastBeat = time.Now()
		n.status = StatusDraining
	default:
		n.missed = 0
		n.load = b.load
		n.saturated = b.saturated
		n.lastBeat = time.Now()
		switch n.status {
		case StatusHealthy:
		case StatusUnhealthy:
			n.okStreak++
			if n.okStreak >= n.needOK {
				n.okStreak = 0
				n.recoveredAt = time.Now()
				n.status = StatusHealthy
			}
		default: // Unknown, Suspect, or a Draining node that came back ready
			n.status = StatusHealthy
		}
	}
	return n.status, n.status != prev
}

// statusNow returns the current status.
func (n *node) statusNow() Status {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.status
}

// routable reports whether new work may be placed on the node.
func (n *node) routable() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.status == StatusHealthy && !n.saturated
}

// setManualDrain pins (or releases) the operator-drain override.
func (n *node) setManualDrain(on bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.manualDrain = on
	if on {
		n.status = StatusDraining
	}
}

// NodeView is the externally visible snapshot of a node.
type NodeView struct {
	Name      string `json:"name"`
	URL       string `json:"url"`
	Status    string `json:"status"`
	Saturated bool   `json:"saturated,omitempty"`
	Missed    int    `json:"missed_beats"`
	NeedOK    int    `json:"recover_beats_needed,omitempty"`
	Trips     int    `json:"breaker_trips"`
	Load      int    `json:"load"`     // last beat-reported queued+running
	Inflight  int    `json:"inflight"` // jobs this coordinator has placed here
	LastBeat  string `json:"last_beat,omitempty"`

	status Status // Status as the state machine holds it, for the gauges
}

// view snapshots the node.
func (n *node) view() NodeView {
	n.mu.Lock()
	defer n.mu.Unlock()
	v := NodeView{
		Name:      n.name,
		URL:       n.url,
		Status:    n.status.String(),
		status:    n.status,
		Saturated: n.saturated,
		Missed:    n.missed,
		Trips:     n.trips,
		Load:      n.load,
		Inflight:  int(n.inflight.Load()),
	}
	if n.status == StatusUnhealthy {
		v.NeedOK = n.needOK - n.okStreak
	}
	if !n.lastBeat.IsZero() {
		v.LastBeat = n.lastBeat.UTC().Format(time.RFC3339Nano)
	}
	return v
}
