package lifecycle

import (
	"errors"
	"sync"
	"testing"
	"time"

	"consumergrid/internal/metrics"
)

func TestRunnerStartsInOrderStopsInReverse(t *testing.T) {
	r := NewRunner(Options{Owner: "t1", Registry: metrics.NewRegistry()})
	var order []string
	comp := func(name string) Component {
		return Component{
			Name:  name,
			Start: func() error { order = append(order, "start:"+name); return nil },
			Stop:  func() error { order = append(order, "stop:"+name); return nil },
		}
	}
	r.Register(comp("overlay"))
	r.Register(comp("controller"))
	r.Register(comp("webstatus"))
	if err := r.StartAll(); err != nil {
		t.Fatalf("StartAll: %v", err)
	}
	if err := r.StopAll(); err != nil {
		t.Fatalf("StopAll: %v", err)
	}
	want := []string{
		"start:overlay", "start:controller", "start:webstatus",
		"stop:webstatus", "stop:controller", "stop:overlay",
	}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order[%d] = %s, want %s (full: %v)", i, order[i], want[i], order)
		}
	}
}

func TestRunnerStartFailureUnwindsStartedPrefix(t *testing.T) {
	r := NewRunner(Options{Owner: "t2", Registry: metrics.NewRegistry()})
	var stopped []string
	boom := errors.New("boom")
	r.Register(Component{Name: "a", Stop: func() error { stopped = append(stopped, "a"); return nil }})
	r.Register(Component{Name: "b", Stop: func() error { stopped = append(stopped, "b"); return nil }})
	r.Register(Component{Name: "c", Start: func() error { return boom }})
	r.Register(Component{Name: "d", Start: func() error { t.Fatal("d started after c failed"); return nil }})
	err := r.StartAll()
	if !errors.Is(err, boom) {
		t.Fatalf("StartAll err = %v, want wrapping boom", err)
	}
	if len(stopped) != 2 || stopped[0] != "b" || stopped[1] != "a" {
		t.Fatalf("unwind stopped %v, want [b a]", stopped)
	}
}

func TestRunnerStopAllRunsEveryStopAndReturnsFirstError(t *testing.T) {
	r := NewRunner(Options{Owner: "t3", Registry: metrics.NewRegistry()})
	var stopped []string
	bad := errors.New("stuck pipe")
	r.Register(Component{Name: "a", Stop: func() error { stopped = append(stopped, "a"); return nil }})
	r.Register(Component{Name: "b", Stop: func() error { stopped = append(stopped, "b"); return bad }})
	r.Register(Component{Name: "c", Stop: func() error { stopped = append(stopped, "c"); return nil }})
	if err := r.StartAll(); err != nil {
		t.Fatalf("StartAll: %v", err)
	}
	err := r.StopAll()
	if !errors.Is(err, bad) {
		t.Fatalf("StopAll err = %v, want wrapping %v", err, bad)
	}
	if len(stopped) != 3 {
		t.Fatalf("stopped %v, want all three despite b's error", stopped)
	}
}

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

func TestSuperviseRestartsCrashedComponentWithBackoff(t *testing.T) {
	reg := metrics.NewRegistry()
	r := NewRunner(Options{Owner: "s1", Registry: reg})
	var mu sync.Mutex
	runs := 0
	healthy := make(chan struct{})
	r.Supervise("flappy", func(stop <-chan struct{}) error {
		mu.Lock()
		runs++
		n := runs
		mu.Unlock()
		if n <= 3 {
			return errors.New("crash")
		}
		close(healthy)
		<-stop
		return nil
	}, SuperviseOptions{Backoff: time.Millisecond, MaxBackoff: 10 * time.Millisecond})
	if err := r.StartAll(); err != nil {
		t.Fatalf("StartAll: %v", err)
	}
	select {
	case <-healthy:
	case <-time.After(5 * time.Second):
		t.Fatal("component never reached its healthy run after crashes")
	}
	if err := r.StopAll(); err != nil {
		t.Fatalf("StopAll: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if runs != 4 {
		t.Fatalf("runs = %d, want 4 (3 crashes + 1 healthy)", runs)
	}
	c := reg.Counter(metrics.Series("lifecycle_restarts_total", "peer", "s1", "component", "flappy"))
	if got := c.Value(); got != 3 {
		t.Fatalf("restart counter = %d, want 3", got)
	}
}

func TestSuperviseGivesUpAfterMaxRestarts(t *testing.T) {
	r := NewRunner(Options{Owner: "s2", Registry: metrics.NewRegistry()})
	var mu sync.Mutex
	runs := 0
	r.Supervise("doomed", func(stop <-chan struct{}) error {
		mu.Lock()
		runs++
		mu.Unlock()
		return errors.New("always crashes")
	}, SuperviseOptions{Backoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond, MaxRestarts: 2})
	if err := r.StartAll(); err != nil {
		t.Fatalf("StartAll: %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		n := runs
		mu.Unlock()
		if n >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("runs = %d, want 3 before giving up", n)
		}
		time.Sleep(time.Millisecond)
	}
	// StopAll must return promptly even though the run loop gave up.
	done := make(chan error, 1)
	go func() { done <- r.StopAll() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("StopAll: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("StopAll hung on a given-up supervised component")
	}
	mu.Lock()
	defer mu.Unlock()
	if runs != 3 {
		t.Fatalf("runs = %d, want exactly 3 (initial + 2 restarts)", runs)
	}
}

func TestSuperviseStopInterruptsBackoffWait(t *testing.T) {
	r := NewRunner(Options{Owner: "s3", Registry: metrics.NewRegistry()})
	r.Supervise("slowback", func(stop <-chan struct{}) error {
		return errors.New("crash straight into a long backoff")
	}, SuperviseOptions{Backoff: time.Hour, MaxBackoff: time.Hour})
	if err := r.StartAll(); err != nil {
		t.Fatalf("StartAll: %v", err)
	}
	time.Sleep(10 * time.Millisecond) // let it crash and enter backoff
	done := make(chan error, 1)
	go func() { done <- r.StopAll() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("StopAll: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("StopAll did not interrupt the backoff sleep")
	}
}
