package service

// Session liveness at the service surface: the mux session is the one
// failure detector (DESIGN §10.4), so a donor that falls silent — the
// paper's powered-off machine, simnet's Freeze — is declared dead by
// the attempt that was waiting on it, while a donor that is merely slow
// keeps its attempt alive for as long as its unit runs. These tests run
// on the real keepalive constants: each detection takes seconds.

import (
	"bytes"
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"consumergrid/internal/health"
	"consumergrid/internal/jxtaserve"
	"consumergrid/internal/metrics"
	"consumergrid/internal/policy"
	"consumergrid/internal/simnet"
	"consumergrid/internal/taskgraph"
	"consumergrid/internal/types"
	"consumergrid/internal/units"
)

// silentAfter is the longest a silent session may live: the keepalive
// misses plus one interval, at jxtaserve's 1 s keepalive interval.
const silentAfter = 4 * time.Second

// holdUnit passes its input through after calling holdHook, when set.
type holdUnit struct{}

const holdUnitName = "test.liveness.Hold"

var (
	holdOnce sync.Once
	holdHook atomic.Pointer[func()]
)

func registerHoldUnit() {
	holdOnce.Do(func() {
		units.Register(units.Meta{
			Name:        holdUnitName,
			Description: "test unit that calls a hook before passing each item on",
			In:          1, Out: 1,
			InTypes:  [][]string{{types.AnyType}},
			OutTypes: []string{types.AnyType},
		}, func() units.Unit { return holdUnit{} })
	})
}

func (holdUnit) Name() string            { return holdUnitName }
func (holdUnit) Init(units.Params) error { return nil }

func (holdUnit) Process(_ *units.Context, in []types.Data) ([]types.Data, error) {
	if hook := holdHook.Load(); hook != nil {
		(*hook)()
	}
	return []types.Data{in[0]}, nil
}

// holdBody returns a farm body of one hold unit.
func holdBody(t *testing.T) func() *taskgraph.Graph {
	registerHoldUnit()
	return func() *taskgraph.Graph {
		g := taskgraph.New("holdbody")
		task, err := units.NewTask("Hold", holdUnitName)
		if err != nil {
			t.Fatal(err)
		}
		g.MustAdd(task)
		g.ExternalIn = []taskgraph.Endpoint{{Task: "Hold", Node: 0}}
		g.ExternalOut = []taskgraph.Endpoint{{Task: "Hold", Node: 0}}
		return g
	}
}

// setHoldHook installs fn for the test's duration.
func setHoldHook(t *testing.T, fn func()) {
	holdHook.Store(&fn)
	t.Cleanup(func() { holdHook.Store(nil) })
}

// sendHook wraps a transport and calls fn after every frame sent on a
// conn it dialled or accepted.
type sendHook struct {
	jxtaserve.Transport
	fn func(*jxtaserve.Message)
}

type sendHookConn struct {
	jxtaserve.Conn
	fn func(*jxtaserve.Message)
}

func (c sendHookConn) Send(m *jxtaserve.Message) error {
	err := c.Conn.Send(m)
	if err == nil {
		c.fn(m)
	}
	return err
}

type sendHookListener struct {
	jxtaserve.Listener
	fn func(*jxtaserve.Message)
}

func (l sendHookListener) Accept() (jxtaserve.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return sendHookConn{c, l.fn}, nil
}

func (h sendHook) Dial(addr string) (jxtaserve.Conn, error) {
	c, err := h.Transport.Dial(addr)
	if err != nil {
		return nil, err
	}
	return sendHookConn{c, h.fn}, nil
}

func (h sendHook) Listen(addr string) (jxtaserve.Listener, error) {
	l, err := h.Transport.Listen(addr)
	if err != nil {
		return nil, err
	}
	return sendHookListener{l, h.fn}, nil
}

// marshalAll encodes outputs for a byte-for-byte comparison.
func marshalAll(t *testing.T, ds []types.Data) [][]byte {
	t.Helper()
	out := make([][]byte, len(ds))
	for i, d := range ds {
		p, err := types.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = p
	}
	return out
}

// TestFarmFrozenDonorDeclaredDead: a donor freezes with chunk 1 in
// flight — it has accepted the run and the controller is waiting on the
// job — and no farm option is set. Its session falls silent, the wait
// ends in ErrSessionSilent, and that attempt alone declares the donor
// dead: its breaker opens, the chunk replays on another donor from the
// same checkpoint, and the committed stream is byte-identical to a
// clean run's.
func TestFarmFrozenDonorDeclaredDead(t *testing.T) {
	chunks := chaosChunks(chaosSeed, chaosChunksN, chaosPerChunk)
	want := faultFreeBaseline(t, chunks)

	n := simnet.New()
	ctl := newService(t, n.Peer("fz-ctl"), "fz-ctl", Options{})
	var runReplies atomic.Int32
	var frozen atomic.Value // the label of the donor that froze
	var peers []PeerRef
	for _, label := range []string{"fz-w1", "fz-w2", "fz-w3"} {
		tr := sendHook{n.Peer(label), func(m *jxtaserve.Message) {
			// Only a triana.run reply names its job in a header. The
			// second one is chunk 1's: freeze its donor as it lands.
			if m.Kind == jxtaserve.KindRPCReply && m.Header("job") != "" && runReplies.Add(1) == 2 {
				frozen.Store(label)
				n.Freeze(label)
			}
		}}
		w := newService(t, tr, label, Options{})
		peers = append(peers, PeerRef{ID: label, Addr: w.Addr()})
	}

	// The bound is the test's own: the farm sets no option and holds no
	// deadline.
	ctx, cancel := context.WithTimeout(context.Background(), 15*silentAfter)
	defer cancel()
	start := time.Now()
	rep, err := ctl.FarmChunks(ctx, chunks, FarmOptions{
		Body:  func() *taskgraph.Graph { return accumBody(t) },
		Peers: peers,
	})
	if err != nil {
		t.Fatalf("farm failed: %v (report %+v)", err, rep)
	}
	label, _ := frozen.Load().(string)
	if label == "" {
		t.Fatal("no donor froze; the test exercised nothing")
	}
	t.Logf("froze %s; farm took %v; peers %v", label, time.Since(start), rep.PeerChunks)

	got, wantB := marshalAll(t, rep.Outputs), marshalAll(t, want)
	if len(got) != len(wantB) {
		t.Fatalf("%d outputs, want %d", len(got), len(wantB))
	}
	for i := range got {
		if !bytes.Equal(got[i], wantB[i]) {
			t.Fatalf("output %d differs from the clean run's", i)
		}
	}
	snap := ctl.Resilience().Snapshot()
	if snap.PeersDeclaredDead != 1 {
		t.Errorf("peers declared dead = %d, want 1", snap.PeersDeclaredDead)
	}
	if st := ctl.Health().State(label); st != health.Open {
		t.Errorf("frozen donor's breaker = %v, want open", st)
	}
	// One replacement for chunk 1, and nothing wasted: the frozen
	// attempt's outputs never came home.
	if rep.Redespatches != 1 || rep.WastedOutputs != 0 {
		t.Errorf("redespatches = %d, wasted = %d; want 1 and 0", rep.Redespatches, rep.WastedOutputs)
	}
	if rep.PeerChunks[label] != 1 {
		t.Errorf("frozen donor committed %d chunks, want 1 (chunk 0)", rep.PeerChunks[label])
	}
}

// TestFarmLongUnitOutlivesDetector: a unit that blocks for longer than
// a silent session may live commits with default options, because an
// idle session lives on keepalives: no attempt path holds a deadline.
func TestFarmLongUnitOutlivesDetector(t *testing.T) {
	registerHoldUnit()
	block := silentAfter + 500*time.Millisecond
	setHoldHook(t, func() { time.Sleep(block) })
	kaSent := metrics.Default().Counter(metrics.Series("jxtaserve_keepalives_total", "result", "sent"))
	before := kaSent.Value()

	tr := jxtaserve.NewInProc()
	ctl := newService(t, tr, "lu-ctl", Options{})
	w := newService(t, tr, "lu-w", Options{})
	chunks := [][]types.Data{{&types.Const{Value: 7}}}
	start := time.Now()
	rep, err := ctl.FarmChunks(context.Background(), chunks, FarmOptions{
		Body:  holdBody(t),
		Peers: []PeerRef{{ID: "lu-w", Addr: w.Addr()}},
	})
	if err != nil {
		t.Fatalf("a %v unit failed its farm: %v", block, err)
	}
	if elapsed := time.Since(start); elapsed < block {
		t.Fatalf("farm took %v, shorter than its %v unit", elapsed, block)
	}
	if len(rep.Outputs) != 1 || rep.Redespatches != 0 || rep.WastedOutputs != 0 {
		t.Errorf("report %+v, want one output and no recovery work", rep)
	}
	if n := ctl.Resilience().Snapshot().PeersDeclaredDead; n != 0 {
		t.Errorf("a slow donor was declared dead %d times", n)
	}
	if kaSent.Value() == before {
		t.Error("the idle session sent no keepalive; nothing kept it alive")
	}
}

// TestRunDistributedSilentReplica: a Parallel run's replica freezes
// mid-run. Its session falls silent, so its pipes end and its remote
// wait fails: RunDistributed returns an error within the keepalive
// misses plus two intervals, where it used to hang.
func TestRunDistributedSilentReplica(t *testing.T) {
	registerHoldUnit()
	n := simnet.New()
	ctl := newService(t, n.Peer("sr-ctl"), "sr-ctl", Options{})
	w := newService(t, n.Peer("sr-w"), "sr-w", Options{})

	var frozeAt atomic.Int64
	var items atomic.Int32
	setHoldHook(t, func() {
		if items.Add(1) == 2 {
			frozeAt.Store(time.Now().UnixNano())
			n.Freeze("sr-w")
		}
	})
	g := figure1(t, policy.NameParallel)
	g.Find("GroupTask").Group.Find("Gaussian").Unit = holdUnitName
	plan := &policy.Plan{Kind: policy.KindParallel, Replicas: []string{"sr-w"}}
	peers := map[string]PeerRef{"sr-w": {ID: "sr-w", Addr: w.Addr()}}

	done := make(chan error, 1)
	go func() {
		_, err := ctl.RunDistributed(context.Background(), g, "GroupTask", plan, peers,
			DistOptions{Iterations: 6, Seed: 1})
		done <- err
	}()
	limit := silentAfter + time.Second
	select {
	case err := <-done:
		if frozeAt.Load() == 0 {
			t.Fatalf("run ended before the replica froze: %v", err)
		}
		elapsed := time.Since(time.Unix(0, frozeAt.Load()))
		if err == nil {
			t.Fatal("run with a frozen replica succeeded")
		}
		if !errors.Is(err, jxtaserve.ErrSessionSilent) {
			t.Errorf("run failed with %v, want the silent session's error", err)
		}
		if elapsed > limit {
			t.Errorf("run failed %v after the freeze, want within %v", elapsed, limit)
		}
	case <-time.After(3 * limit):
		t.Fatalf("run still blocked %v after its replica froze", 3*limit)
	}
}

// TestFarmWedgedDonorNeedsSpeculation: a donor whose session stays
// alive but whose job never answers its triana.wait — a wedged unit, or
// a byzantine donor withholding its result — is no silent peer, so no
// verdict ends its attempt and nothing bounds it but the farm's own
// context. Without Speculate the farm holds past the detector's window
// until that context ends; with Speculate the straggler timer launches
// a backup on the other donor, which commits the chunk. Either way the
// abandoned attempt's job ignores its cancel, and reaping it waits one
// probeTimeout for the job's record, no longer: each phase returns
// within probeTimeout + 1 s of its context's end or the backup's commit.
func TestFarmWedgedDonorNeedsSpeculation(t *testing.T) {
	release := make(chan struct{})
	var calls atomic.Int32
	setHoldHook(t, func() {
		if calls.Add(1) == 1 {
			<-release // the first item anywhere wedges its donor's job
		}
	})
	tr := jxtaserve.NewInProc()
	ctl := newService(t, tr, "wd-ctl", Options{})
	var peers []PeerRef
	for _, id := range []string{"wd-w1", "wd-w2"} {
		w := newService(t, tr, id, Options{})
		peers = append(peers, PeerRef{ID: id, Addr: w.Addr()})
	}
	t.Cleanup(func() { close(release) }) // runs before the services close
	chunks := [][]types.Data{{&types.Const{Value: 7}}}

	bound := silentAfter + time.Second
	reaped := probeTimeout + time.Second
	ctx, cancel := context.WithTimeout(context.Background(), bound)
	defer cancel()
	start := time.Now()
	_, err := ctl.FarmChunks(ctx, chunks, FarmOptions{Body: holdBody(t), Peers: peers[:1]})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("farm on a wedged donor ended with %v after %v, want its context's deadline",
			err, time.Since(start))
	}
	if late := time.Since(start) - bound; late > reaped {
		t.Errorf("farm returned %v after its context ended, want within %v", late, reaped)
	}
	if n := ctl.Resilience().Snapshot().PeersDeclaredDead; n != 0 {
		t.Errorf("a live donor was declared dead %d times", n)
	}

	calls.Store(0)
	ctx, cancel = context.WithTimeout(context.Background(), bound)
	defer cancel()
	var committed time.Time
	rep, err := ctl.FarmChunks(ctx, chunks, FarmOptions{
		Body:           holdBody(t),
		Peers:          peers,
		Speculate:      true,
		SpeculateAfter: 200 * time.Millisecond,
		AfterChunk:     func(int) { committed = time.Now() },
	})
	if err != nil {
		t.Fatalf("speculating farm failed: %v", err)
	}
	if late := time.Since(committed); late > reaped {
		t.Errorf("farm returned %v after the backup committed, want within %v", late, reaped)
	}
	if rep.SpeculationWins != 1 || len(rep.Outputs) != 1 {
		t.Errorf("report %+v, want the backup's one output", rep)
	}
}

// helloWait is jxtaserve's hello timeout: how long a dial waits for a
// connected listener to say hello.
const helloWait = 5 * time.Second

// TestSilentListenerCostsOneHelloWait: a listener that takes connects
// and never says hello — a stopped donor whose kernel still accepts —
// costs a request one hello wait, not MaxAttempts of them. The hello
// timeout is the session detector's silence verdict: requestRetry does
// not retry it, and it declares the peer dead. A refused connect still
// retries.
func TestSilentListenerCostsOneHelloWait(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var held []net.Conn
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		for _, c := range held {
			c.Close()
		}
		mu.Unlock()
	})
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			held = append(held, c)
			mu.Unlock()
		}
	}()
	ctl := newService(t, jxtaserve.TCP{}, "sl-ctl", Options{Resilience: ResilienceOptions{MaxAttempts: 3}})
	peer := PeerRef{ID: "sl-w", Addr: ln.Addr().String()}

	start := time.Now()
	_, err = ctl.requestRetry(context.Background(), peer.Addr, MethodRun, nil, nil, false, 0)
	elapsed := time.Since(start)
	if !errors.Is(err, jxtaserve.ErrSessionSilent) {
		t.Fatalf("request to a silent listener returned %v, want ErrSessionSilent", err)
	}
	if limit := helloWait + time.Second; elapsed > limit {
		t.Errorf("request to a silent listener took %v, want within %v", elapsed, limit)
	}
	if n := ctl.Resilience().Snapshot().Retries; n != 0 {
		t.Errorf("a silent listener was retried %d times", n)
	}
	ctl.declareDead(peer, err)
	if st := ctl.Health().State(peer.ID); st != health.Open {
		t.Errorf("silent listener's breaker is %v, want open", st)
	}

	// A refused connect is an outage requestRetry retries through.
	closed, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	closed.Close()
	if _, err = ctl.requestRetry(context.Background(), closed.Addr().String(), MethodRun, nil, nil, false, 0); err == nil {
		t.Fatal("request to a closed port succeeded")
	}
	if n := ctl.Resilience().Snapshot().Retries; n != 2 {
		t.Errorf("a refused connect was retried %d times, want 2", n)
	}
}

// TestShutdownJudgesNoPeer: a dial refused by our own closed transport
// — a farm attempt caught by its controller's shutdown — declares no
// healthy peer dead.
func TestShutdownJudgesNoPeer(t *testing.T) {
	tr := jxtaserve.NewInProc()
	ctl := newService(t, tr, "sd-ctl", Options{})
	w := newService(t, tr, "sd-w", Options{})
	ctl.Close()
	_, err := ctl.requestRetry(context.Background(), w.Addr(), MethodPing, nil, nil, true, time.Second)
	var dialErr *jxtaserve.DialError
	if !errors.As(err, &dialErr) || !errors.Is(err, jxtaserve.ErrClosed) {
		t.Fatalf("request from a closed service returned %v, want a dial error wrapping ErrClosed", err)
	}
	ctl.declareDead(PeerRef{ID: "sd-w", Addr: w.Addr()}, err)
	if n := ctl.Resilience().Snapshot().PeersDeclaredDead; n != 0 {
		t.Errorf("shutdown declared %d peers dead, want 0", n)
	}
	if st := ctl.Health().State("sd-w"); st == health.Open {
		t.Error("shutdown opened a healthy peer's breaker")
	}
}
