package simnet

import (
	"errors"
	"testing"
	"time"

	"consumergrid/internal/jxtaserve"
)

// muxOverSimnet builds a mux client/server pair whose shared connection
// crosses the simulated network, returning the client transport, the
// server listener, and a channel of accepted per-stream conns.
func muxOverSimnet(t *testing.T, n *Network) (*jxtaserve.MuxTransport, jxtaserve.Listener, chan jxtaserve.Conn) {
	t.Helper()
	srv := jxtaserve.NewMux(n.Peer("srv"), jxtaserve.WireOptions{})
	cli := jxtaserve.NewMux(n.Peer("cli"), jxtaserve.WireOptions{})
	t.Cleanup(func() { cli.Close(); srv.Close() })
	l, err := srv.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan jxtaserve.Conn, 16)
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				close(accepted)
				return
			}
			accepted <- c
		}
	}()
	return cli, l, accepted
}

func acceptOne(t *testing.T, accepted chan jxtaserve.Conn) jxtaserve.Conn {
	t.Helper()
	select {
	case c := <-accepted:
		return c
	case <-time.After(5 * time.Second):
		t.Fatal("no stream accepted")
		return nil
	}
}

// TestMuxDropResetsStreamNotSession: an injected drop on a muxed link
// must reset exactly the stream it hit. The sibling stream keeps
// flowing, the session survives, and no reconnect happens.
func TestMuxDropResetsStreamNotSession(t *testing.T) {
	n := New()
	cli, l, accepted := muxOverSimnet(t, n)
	n.SetLinkFaults(l.Addr(), LinkFaults{DropEvery: 3})

	a, err := cli.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	b, err := cli.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	// Data ticks 1 and 2 pass, tick 3 drops and must land on stream a.
	if err := a.Send(&jxtaserve.Message{Kind: "stream.a"}); err != nil {
		t.Fatalf("a first send: %v", err)
	}
	if err := b.Send(&jxtaserve.Message{Kind: "stream.b"}); err != nil {
		t.Fatalf("b first send: %v", err)
	}
	err = a.Send(&jxtaserve.Message{Kind: "stream.a"})
	var sf *StreamFaultError
	if !errors.As(err, &sf) {
		t.Fatalf("dropped send = %v, want StreamFaultError", err)
	}
	var de *DropError
	if !errors.As(err, &de) {
		t.Fatalf("StreamFaultError should wrap DropError, got %v", err)
	}
	// The victim stream is dead for good...
	if err := a.Send(&jxtaserve.Message{Kind: "stream.a"}); err == nil {
		t.Fatal("send on reset stream succeeded")
	}
	// ...but the sibling still flows both ways on the same session.
	for i := 0; i < 2; i++ {
		if err := b.Send(&jxtaserve.Message{Kind: "stream.b"}); err != nil {
			t.Fatalf("sibling send %d after drop: %v", i, err)
		}
	}
	srvA, srvB := acceptOne(t, accepted), acceptOne(t, accepted)
	if m, err := srvA.Recv(); err != nil {
		t.Fatal(err)
	} else if m.Kind == "stream.b" {
		srvA, srvB = srvB, srvA
	}
	for i := 0; i < 3; i++ { // first frame + the two post-drop sends
		m, err := srvB.Recv()
		if i == 0 && err == nil && m.Kind != "stream.b" {
			t.Fatalf("sibling stream delivered %q", m.Kind)
		}
		if err != nil {
			t.Fatalf("sibling recv %d: %v", i, err)
		}
	}
	// The victim's server side must observe the synthetic reset.
	if _, err := srvA.Recv(); err == nil {
		t.Fatal("victim's server side never saw the reset")
	}
	if got := n.Dropped(); got != 1 {
		t.Errorf("dropped = %d, want 1", got)
	}
	// The session never redialled: clear the faults and a fresh stream
	// rides the same connection.
	n.SetLinkFaults(l.Addr(), LinkFaults{})
	c, err := cli.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Send(&jxtaserve.Message{Kind: "stream.c"}); err != nil {
		t.Fatalf("fresh stream after drop: %v", err)
	}
	if got := n.Dials(); got != 1 {
		t.Errorf("network saw %d dials, want 1 (session must survive the drop)", got)
	}
}

// TestMuxPartitionResetsCrossingStreams: a partition leaves the muxed
// session up (it is shared infrastructure) but resets any stream whose
// traffic crosses the split; after Heal, new streams flow on the same
// connection without redialling.
func TestMuxPartitionResetsCrossingStreams(t *testing.T) {
	n := New()
	cli, l, accepted := muxOverSimnet(t, n)

	a, err := cli.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send(&jxtaserve.Message{Kind: "pre"}); err != nil {
		t.Fatal(err)
	}
	srvA := acceptOne(t, accepted)
	if _, err := srvA.Recv(); err != nil {
		t.Fatal(err)
	}

	n.Partition([]string{"cli"}, []string{"srv"})
	err = a.Send(&jxtaserve.Message{Kind: "crossing"})
	var sf *StreamFaultError
	if !errors.As(err, &sf) {
		t.Fatalf("send across partition = %v, want StreamFaultError", err)
	}
	var pe *PartitionError
	if !errors.As(err, &pe) {
		t.Fatalf("StreamFaultError should wrap PartitionError, got %v", err)
	}

	n.Heal()
	b, err := cli.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Send(&jxtaserve.Message{Kind: "post"}); err != nil {
		t.Fatalf("send after heal: %v", err)
	}
	srvB := acceptOne(t, accepted)
	if m, err := srvB.Recv(); err != nil || m.Kind != "post" {
		t.Fatalf("post-heal recv = %v, %v", m, err)
	}
	if got := n.Dials(); got != 1 {
		t.Errorf("network saw %d dials, want 1 (session must survive the partition)", got)
	}
}

// TestMuxControlFramesExemptFromFaults: with DropEvery=1 every data
// frame drops, yet the mux handshake (and the synthetic resets it needs)
// must still get through — control frames ride a reliable channel and
// don't tick the drop clock.
func TestMuxControlFramesExemptFromFaults(t *testing.T) {
	n := New()
	cli, l, _ := muxOverSimnet(t, n)
	n.SetLinkFaults(l.Addr(), LinkFaults{DropEvery: 1})

	// Dial succeeds only if mux.hello crossed the faulted link both ways.
	c, err := cli.Dial(l.Addr())
	if err != nil {
		t.Fatalf("handshake did not survive DropEvery=1: %v", err)
	}
	// The first data frame must be the first tick of the drop clock.
	err = c.Send(&jxtaserve.Message{Kind: "doomed"})
	var sf *StreamFaultError
	if !errors.As(err, &sf) {
		t.Fatalf("first data send = %v, want StreamFaultError", err)
	}
	if got := n.Dropped(); got != 1 {
		t.Errorf("dropped = %d, want 1 (control frames must not tick the clock)", got)
	}
}

// TestDialsCounterCountsRawConnections pins the metric the mux's
// O(peers) claim is measured against: every inner Dial counts, and an
// unmuxed transport pays one per logical conn.
func TestDialsCounterCountsRawConnections(t *testing.T) {
	n := New()
	l := sinkServer(t, n.Peer("srv"))
	for i := 0; i < 3; i++ {
		c, err := n.Peer("cli").Dial(l.Addr())
		if err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
	if got := n.Dials(); got != 3 {
		t.Errorf("dials = %d, want 3", got)
	}
}
