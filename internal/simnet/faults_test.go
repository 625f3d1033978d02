package simnet

import (
	"errors"
	"testing"
	"time"

	"consumergrid/internal/churn"
	"consumergrid/internal/jxtaserve"
)

// echoServer accepts connections on a tagged listener and echoes one
// message per received message until the conn breaks.
func echoServer(t *testing.T, tr jxtaserve.Transport) jxtaserve.Listener {
	t.Helper()
	l, err := tr.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				for {
					m, err := c.Recv()
					if err != nil {
						return
					}
					if err := c.Send(m); err != nil {
						return
					}
				}
			}()
		}
	}()
	t.Cleanup(func() { l.Close() })
	return l
}

// sinkServer accepts connections and drains them without replying.
func sinkServer(t *testing.T, tr jxtaserve.Transport) jxtaserve.Listener {
	t.Helper()
	l, err := tr.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				for {
					if _, err := c.Recv(); err != nil {
						return
					}
				}
			}()
		}
	}()
	t.Cleanup(func() { l.Close() })
	return l
}

func TestDropEveryBreaksConnDeterministically(t *testing.T) {
	n := New()
	l := echoServer(t, n.Peer("srv"))
	n.SetLinkFaults(l.Addr(), LinkFaults{DropEvery: 3})

	c, err := n.Peer("cli").Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	msg := &jxtaserve.Message{Kind: "ping"}
	// Sends 1 and 2 pass; send 3 drops and breaks the conn.
	for i := 0; i < 2; i++ {
		if err := c.Send(msg); err != nil {
			t.Fatalf("send %d: %v", i+1, err)
		}
		if _, err := c.Recv(); err != nil {
			t.Fatalf("recv %d: %v", i+1, err)
		}
	}
	err = c.Send(msg)
	var de *DropError
	if !errors.As(err, &de) {
		t.Fatalf("third send = %v, want DropError", err)
	}
	if err := c.Send(msg); !errors.Is(err, jxtaserve.ErrClosed) {
		t.Fatalf("send after drop = %v, want ErrClosed", err)
	}
	if n.Dropped() != 1 {
		t.Errorf("dropped = %d", n.Dropped())
	}
}

func TestDropProbSeededIsReproducible(t *testing.T) {
	run := func(seed int64) int {
		n := New()
		n.FaultSeed(seed)
		// Receive-only sink: the server never Sends, so the client's
		// sends are the only RNG draws and the schedule is deterministic.
		l := sinkServer(t, n.Peer("srv"))
		n.SetLinkFaults(l.Addr(), LinkFaults{DropProb: 0.3})
		drops := 0
		for i := 0; i < 40; i++ {
			c, err := n.Dial(l.Addr())
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Send(&jxtaserve.Message{Kind: "x"}); err != nil {
				drops++
			}
			c.Close()
		}
		return drops
	}
	a, b := run(7), run(7)
	if a != b {
		t.Errorf("same seed diverged: %d vs %d drops", a, b)
	}
	if a == 0 || a == 40 {
		t.Errorf("drop rate degenerate: %d/40", a)
	}
}

func TestJitterDelaysSend(t *testing.T) {
	n := New()
	l := echoServer(t, n.Peer("srv"))
	n.SetLinkFaults(l.Addr(), LinkFaults{Latency: 5 * time.Millisecond, Jitter: time.Millisecond})
	c, err := n.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	if err := c.Send(&jxtaserve.Message{Kind: "x"}); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 5*time.Millisecond {
		t.Errorf("send took %v, want >= 5ms", d)
	}
}

func TestKillBreaksBothDirectionsAndRestartHeals(t *testing.T) {
	n := New()
	l := echoServer(t, n.Peer("srv"))

	c, err := n.Peer("cli").Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Send(&jxtaserve.Message{Kind: "x"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Recv(); err != nil {
		t.Fatal(err)
	}

	n.Kill("srv")
	if err := c.Send(&jxtaserve.Message{Kind: "x"}); err == nil {
		t.Error("send over killed peer's conn succeeded")
	}
	if _, err := n.Peer("cli").Dial(l.Addr()); err == nil {
		t.Error("dial to killed peer succeeded")
	}
	var pd *PeerDownError
	_, err = n.Dial(l.Addr())
	if !errors.As(err, &pd) || pd.Label != "srv" {
		t.Errorf("dial err = %v", err)
	}

	n.Restart("srv")
	c2, err := n.Peer("cli").Dial(l.Addr())
	if err != nil {
		t.Fatalf("dial after restart: %v", err)
	}
	defer c2.Close()
	if err := c2.Send(&jxtaserve.Message{Kind: "x"}); err != nil {
		t.Fatalf("send after restart: %v", err)
	}
}

// TestKillByDiallerLabel: killing the dialling peer breaks its outbound
// connections too, not just inbound ones.
func TestKillByDiallerLabel(t *testing.T) {
	n := New()
	l := echoServer(t, n.Peer("srv"))
	c, err := n.Peer("cli").Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	n.Kill("cli")
	if err := c.Send(&jxtaserve.Message{Kind: "x"}); err == nil {
		t.Error("killed dialler kept its conn")
	}
	if _, err := n.Peer("cli").Dial(l.Addr()); err == nil {
		t.Error("killed dialler can still dial")
	}
}

func TestPartitionBlocksAndHeals(t *testing.T) {
	n := New()
	l := echoServer(t, n.Peer("srv"))
	c, err := n.Peer("cli").Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}

	n.Partition([]string{"cli"}, []string{"srv"})
	if err := c.Send(&jxtaserve.Message{Kind: "x"}); err == nil {
		t.Error("established conn survived partition")
	}
	var pe *PartitionError
	_, err = n.Peer("cli").Dial(l.Addr())
	if !errors.As(err, &pe) {
		t.Errorf("dial across partition = %v", err)
	}
	// An unrelated peer still reaches srv.
	c3, err := n.Peer("other").Dial(l.Addr())
	if err != nil {
		t.Fatalf("unrelated dial: %v", err)
	}
	c3.Close()

	n.Heal()
	c4, err := n.Peer("cli").Dial(l.Addr())
	if err != nil {
		t.Fatalf("dial after heal: %v", err)
	}
	c4.Close()
}

func TestPartitionForAutoHeals(t *testing.T) {
	n := New()
	l := echoServer(t, n.Peer("srv"))
	n.PartitionFor(30*time.Millisecond, []string{"cli"}, []string{"srv"})
	if _, err := n.Peer("cli").Dial(l.Addr()); err == nil {
		t.Fatal("dial during partition succeeded")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := n.Peer("cli").Dial(l.Addr()); err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("partition never healed")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestScheduleRunsEventsInOrder(t *testing.T) {
	n := New()
	ch := make(chan int, 2)
	stop := n.Schedule(
		Event{At: 20 * time.Millisecond, Do: func(*Network) { ch <- 2 }},
		Event{At: 1 * time.Millisecond, Do: func(*Network) { ch <- 1 }},
	)
	defer stop()
	if got := <-ch; got != 1 {
		t.Errorf("first event = %d", got)
	}
	if got := <-ch; got != 2 {
		t.Errorf("second event = %d", got)
	}
}

func TestDriveTraceKillsDuringDownIntervals(t *testing.T) {
	n := New()
	l := echoServer(t, n.Peer("srv"))
	// up [0,1), down [1,2), up [2,3) in virtual seconds; 20ms per second.
	tr := &churn.Trace{Horizon: 3, Intervals: []churn.Interval{
		{Start: 0, End: 1, Up: true},
		{Start: 1, End: 2, Up: false},
		{Start: 2, End: 3, Up: true},
	}}
	stop := n.DriveTrace(tr, "srv", 20*time.Millisecond)
	defer stop()

	if _, err := n.Peer("cli").Dial(l.Addr()); err != nil {
		t.Fatalf("dial during initial up: %v", err)
	}
	// Wait for the down interval to take effect.
	sawDown := false
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := n.Peer("cli").Dial(l.Addr()); err != nil {
			sawDown = true
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !sawDown {
		t.Fatal("trace never took the peer down")
	}
	// And the final up interval restores it.
	for {
		if _, err := n.Peer("cli").Dial(l.Addr()); err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("trace never brought the peer back")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// resultReply is a result-bearing reply: the message the byzantine
// fault targets.
func resultReply(payload []byte) *jxtaserve.Message {
	m := &jxtaserve.Message{Kind: jxtaserve.KindRPCReply, Payload: payload}
	m.SetHeader(jxtaserve.HeaderResults, "1")
	return m
}

// TestCorruptEveryFlipsResultReplies: the byzantine fault corrupts
// exactly every n-th result-bearing reply on the link — frames still
// arrive and still decode-shaped, but the tail byte lies — while every
// other message, pipe.data and unmarked replies included, passes
// untouched and the sender's buffer is never mutated in place. The lie
// is the link's own: liars on different links disagree.
func TestCorruptEveryFlipsResultReplies(t *testing.T) {
	n := New()
	// Reflect every payload back under a control kind: the return leg
	// crosses the byzantine link too, and echoing a marked reply would
	// flip the tail a second time, cancelling the fault.
	l, err := n.Peer("byz").Listen("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				for {
					m, err := c.Recv()
					if err != nil {
						return
					}
					if err := c.Send(&jxtaserve.Message{Kind: "report", Payload: m.Payload}); err != nil {
						return
					}
				}
			}()
		}
	}()
	n.SetLinkFaults("byz", LinkFaults{CorruptEvery: 2})

	c, err := n.Peer("cli").Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Other traffic is never corrupted, whatever the payload.
	for _, kind := range []string{"rpc", jxtaserve.KindPipeData, jxtaserve.KindRPCReply} {
		orig := []byte{10, 20, 30}
		if err := c.Send(&jxtaserve.Message{Kind: kind, Payload: orig}); err != nil {
			t.Fatal(err)
		}
		if m, err := c.Recv(); err != nil || m.Payload[2] != 30 {
			t.Fatalf("%s payload corrupted: %+v (%v)", kind, m, err)
		}
	}

	// Result-bearing replies: the corruption clock ticks per marked
	// reply, so with CorruptEvery:2 the flips alternate
	// deterministically.
	var gotTails []byte
	for i := 0; i < 4; i++ {
		payload := []byte{1, 2, 3}
		if err := c.Send(resultReply(payload)); err != nil {
			t.Fatal(err)
		}
		if payload[2] != 3 {
			t.Fatal("sender's payload buffer mutated in place")
		}
		m, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		gotTails = append(gotTails, m.Payload[len(m.Payload)-1])
	}
	lie := 3 ^ lieMask("byz")
	if lie == 3 {
		t.Fatal("the link's lie flips nothing")
	}
	want := []byte{3, lie, 3, lie}
	for i := range want {
		if gotTails[i] != want[i] {
			t.Fatalf("tails = %v, want %v", gotTails, want)
		}
	}
	if n.Corrupted() != 2 {
		t.Errorf("Corrupted() = %d, want 2", n.Corrupted())
	}

	// Liars on different links tell different lies: the byzantine
	// service tests rely on these keys splitting their votes.
	for _, keys := range [][]string{{"byz", "cli"}, {"sv-w2", "sv-w3"}, {"ts-w1", "ts-w2", "ts-w3"}} {
		seen := make(map[byte]string)
		for _, k := range keys {
			m := lieMask(k)
			if other, dup := seen[m]; dup || m == 0 {
				t.Fatalf("links %q and %q tell the same lie (mask %#x)", other, k, m)
			}
			seen[m] = k
		}
	}

	// The connection survived every corruption: byzantine faults are
	// silent, unlike drops.
	if err := c.Send(&jxtaserve.Message{Kind: "ping"}); err != nil {
		t.Errorf("conn broken by corruption: %v", err)
	}

	n.ResetCounters()
	if n.Corrupted() != 0 {
		t.Error("ResetCounters left the corruption count")
	}
}

// TestCorruptProbSeededReplay: probabilistic corruption replays
// identically for a given fault seed.
func TestCorruptProbSeededReplay(t *testing.T) {
	run := func() []byte {
		n := New()
		n.FaultSeed(99)
		l := echoServer(t, n.Peer("byz"))
		n.SetLinkFaults("byz", LinkFaults{CorruptProb: 0.5})
		c, err := n.Peer("cli").Dial(l.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		var tails []byte
		for i := 0; i < 16; i++ {
			if err := c.Send(resultReply([]byte{7})); err != nil {
				t.Fatal(err)
			}
			m, err := c.Recv()
			if err != nil {
				t.Fatal(err)
			}
			tails = append(tails, m.Payload[0])
		}
		if n.Corrupted() == 0 {
			t.Fatal("0.5 corruption probability never fired in 16 sends")
		}
		return tails
	}
	a, b := run(), b2(run)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seeded corruption did not replay: %v vs %v", a, b)
		}
	}
}

// b2 exists to keep the two runs on separate lines for readable stacks.
func b2(f func() []byte) []byte { return f() }

// recvLoop reads c until it breaks, handing each frame to the channel.
func recvLoop(c jxtaserve.Conn) <-chan *jxtaserve.Message {
	ch := make(chan *jxtaserve.Message, 64)
	go func() {
		defer close(ch)
		for {
			m, err := c.Recv()
			if err != nil {
				return
			}
			ch <- m
		}
	}()
	return ch
}

// quiet reports whether ch delivers nothing, and stays open, for d.
func quiet(ch <-chan *jxtaserve.Message, d time.Duration) bool {
	select {
	case <-ch:
		return false
	case <-time.After(d):
		return true
	}
}

// TestFreezeSilencesWithoutBreaking: a frozen peer is the machine that
// was turned off. Its conns stay open and sends to it succeed, yet
// nothing is delivered either way, whichever end dialled; dials to it
// still connect. Thaw restores delivery on the same conns.
func TestFreezeSilencesWithoutBreaking(t *testing.T) {
	t.Run("frozen-listener", func(t *testing.T) {
		n := New()
		l := echoServer(t, n.Peer("srv"))
		c, err := n.Peer("cli").Dial(l.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		got := recvLoop(c)
		if err := c.Send(&jxtaserve.Message{Kind: "x"}); err != nil {
			t.Fatal(err)
		}
		<-got

		n.Freeze("srv")
		if err := c.Send(&jxtaserve.Message{Kind: "x"}); err != nil {
			t.Fatalf("send to a frozen peer failed: %v (its conns must stay open)", err)
		}
		if !quiet(got, 100*time.Millisecond) {
			t.Fatal("a frozen peer's conn delivered a frame")
		}
		c2, err := n.Peer("cli").Dial(l.Addr())
		if err != nil {
			t.Fatalf("dial to a frozen peer failed: %v (dials must meet silence, not refusal)", err)
		}
		defer c2.Close()
		if err := c2.Send(&jxtaserve.Message{Kind: "x"}); err != nil {
			t.Fatal(err)
		}
		if !quiet(recvLoop(c2), 100*time.Millisecond) {
			t.Fatal("a fresh dial to a frozen peer was answered")
		}

		n.Thaw("srv")
		if err := c.Send(&jxtaserve.Message{Kind: "x"}); err != nil {
			t.Fatal(err)
		}
		select {
		case m, ok := <-got:
			if !ok || m.Kind != "x" {
				t.Fatalf("after thaw: frame %v, open %v", m, ok)
			}
		case <-time.After(time.Second):
			t.Fatal("thaw did not restore delivery")
		}
	})
	t.Run("frozen-dialler", func(t *testing.T) {
		// The listener pushes; frames bound for the frozen dialler
		// vanish on arrival, since the accepted end knows only itself.
		n := New()
		l, err := n.Peer("srv").Listen("")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		var pushErr error
		pushed := make(chan struct{})
		go func() {
			defer close(pushed)
			c, err := l.Accept()
			if err != nil {
				return
			}
			defer c.Close()
			for i := 0; i < 100; i++ {
				if pushErr = c.Send(&jxtaserve.Message{Kind: "push"}); pushErr != nil {
					return
				}
				time.Sleep(5 * time.Millisecond)
			}
		}()
		c, err := n.Peer("cli").Dial(l.Addr())
		if err != nil {
			t.Fatal(err)
		}
		got := recvLoop(c)
		<-got
		n.Freeze("cli")
		time.Sleep(20 * time.Millisecond) // frames already read may still drain
		for len(got) > 0 {
			<-got
		}
		if !quiet(got, 100*time.Millisecond) {
			t.Fatal("a frame reached the frozen dialler")
		}
		n.Thaw("cli")
		if quiet(got, time.Second) {
			t.Fatal("thaw did not restore delivery to the dialler")
		}
		c.Close()
		<-pushed
		if pushErr != nil && !errors.Is(pushErr, jxtaserve.ErrClosed) {
			t.Errorf("pushing to a frozen dialler failed: %v", pushErr)
		}
	})
}
