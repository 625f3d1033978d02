package lifecycle

import (
	"testing"

	"consumergrid/internal/metrics"
)

func TestSetStateRefusesBackwardMoves(t *testing.T) {
	m := NewMachine(metrics.NewRegistry(), "t4")
	m.SetState(Draining)
	m.SetState(Running) // must be ignored
	if got := m.State(); got != Draining {
		t.Fatalf("state = %v, want draining (backward move must be refused)", got)
	}
	m.SetState(Stopped)
	if got := m.State(); got != Stopped {
		t.Fatalf("state = %v, want stopped", got)
	}
}

func TestLifecycleStateGauge(t *testing.T) {
	reg := metrics.NewRegistry()
	m := NewMachine(reg, "g1")
	g := reg.Gauge(metrics.Series("lifecycle_state", "peer", "g1"))
	if got := g.Value(); got != float64(Starting) {
		t.Fatalf("initial gauge = %v, want %v", got, float64(Starting))
	}
	m.SetState(Draining)
	if got := g.Value(); got != float64(Draining) {
		t.Fatalf("gauge after drain = %v, want %v", got, float64(Draining))
	}
}
