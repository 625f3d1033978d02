// Package lifecycle holds the daemon's four-state lifecycle machine,
// surfaced as a gauge (the service holds the daemon's one Machine), and
// a versioned CRC-checked snapshot container for crash-safe state
// (snapshot.go).
//
// The CERN peer-group work argues that availability in a JXTA-style
// grid comes from services that hand off and resume cleanly, not from
// nodes that never fail; this package is the machinery that lets
// trianad be such a service — SIGTERM drains instead of killing, and a
// restarted daemon resumes from its last checkpoint.
//
//	Starting ──service.New──▶ Running ──BeginDrain──▶ Draining ──Close──▶ Stopped
//	    └───────────────────────────────────────────────────────────────────┘
//	                        (any state may jump to Stopped)
package lifecycle

import (
	"sync/atomic"

	"consumergrid/internal/metrics"
)

// State is the daemon's lifecycle position, ordered so the exported
// gauge reads 0 = starting, 1 = running, 2 = draining, 3 = stopped.
type State int32

const (
	Starting State = iota
	Running
	Draining
	Stopped
)

// String names the state.
func (s State) String() string {
	switch s {
	case Starting:
		return "starting"
	case Running:
		return "running"
	case Draining:
		return "draining"
	case Stopped:
		return "stopped"
	default:
		return "unknown"
	}
}

// Machine is a daemon's lifecycle position and its exported
// lifecycle_state{peer} gauge. Moves are monotone except that any state
// may move to Stopped. Safe for concurrent use.
type Machine struct {
	state atomic.Int32
	gauge *metrics.Gauge
}

// NewMachine builds a machine in the Starting state whose gauge is
// registered on reg (default metrics.Default()) under owner.
func NewMachine(reg *metrics.Registry, owner string) *Machine {
	if reg == nil {
		reg = metrics.Default()
	}
	m := &Machine{gauge: reg.Gauge(metrics.Series("lifecycle_state", "peer", owner))}
	m.gauge.Set(float64(Starting))
	return m
}

// State reads the current lifecycle position.
func (m *Machine) State() State { return State(m.state.Load()) }

// SetState moves the machine and the exported gauge. Moves backwards
// (e.g. Draining → Running) are refused so a late goroutine cannot
// resurrect a draining daemon; Stopped is reachable from anywhere.
func (m *Machine) SetState(s State) {
	for {
		cur := m.state.Load()
		if s != Stopped && int32(s) < cur {
			return
		}
		if m.state.CompareAndSwap(cur, int32(s)) {
			m.gauge.Set(float64(s))
			return
		}
	}
}
