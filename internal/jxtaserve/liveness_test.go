package jxtaserve

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The session liveness battery (DESIGN §10.4): a silent peer's session
// dies with ErrSessionSilent, a busy session sends no keepalive, and an
// idle one lives on keepalives alone. testKA stands in for the 1 s
// keepaliveInterval so each test takes a fraction of a second.
const testKA = 200 * time.Millisecond

// kaCounting wraps a transport and counts the mux.ka frames sent on
// every conn it dials or accepts.
type kaCounting struct {
	Transport
	sent atomic.Int64
}

type kaConn struct {
	Conn
	n *atomic.Int64
}

func (c *kaConn) Send(m *Message) error {
	if m.Kind == KindMuxKeepalive {
		c.n.Add(1)
	}
	return c.Conn.Send(m)
}

type kaListener struct {
	Listener
	n *atomic.Int64
}

func (l *kaListener) Accept() (Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &kaConn{Conn: c, n: l.n}, nil
}

func (k *kaCounting) Dial(addr string) (Conn, error) {
	c, err := k.Transport.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &kaConn{Conn: c, n: &k.sent}, nil
}

func (k *kaCounting) Listen(addr string) (Listener, error) {
	l, err := k.Transport.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &kaListener{Listener: l, n: &k.sent}, nil
}

// echoPair returns a client stream to a muxed echo server, both sides
// on testKA liveness, plus the keepalive count of both sides.
func echoPair(t *testing.T) (Conn, *kaCounting) {
	t.Helper()
	counting := &kaCounting{Transport: NewInProc()}
	srv := NewMux(counting, WireOptions{})
	cli := NewMux(counting, WireOptions{})
	srv.kaEvery, cli.kaEvery = testKA, testKA
	t.Cleanup(func() { cli.Close(); srv.Close() })
	l, err := srv.Listen("echo")
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
					if err != nil || c.Send(m) != nil {
						return
					}
				}
			}()
		}
	}()
	st, err := cli.Dial("echo")
	if err != nil {
		t.Fatal(err)
	}
	return st, counting
}

// exchange sends one frame on st and reads its echo.
func exchange(st Conn) error {
	if err := st.Send(&Message{Kind: "test.echo"}); err != nil {
		return err
	}
	_, err := st.Recv()
	return err
}

// TestMuxSilentPeerDies: a peer that answers the hello, then reads
// everything and sends nothing, is declared silent: the session dies
// with ErrSessionSilent within (keepaliveMisses+1) intervals, although
// our side keeps sending all along — only received frames prove the
// peer alive.
func TestMuxSilentPeerDies(t *testing.T) {
	inner := NewInProc()
	raw, err := inner.Listen("mute")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { raw.Close() })
	go func() {
		c, err := raw.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		if _, err := c.Recv(); err != nil || c.Send(helloFrame(defaultWindow)) != nil {
			return
		}
		for {
			if _, err := c.Recv(); err != nil {
				return
			}
		}
	}()
	cli := NewMux(inner, WireOptions{})
	cli.kaEvery = testKA
	t.Cleanup(func() { cli.Close() })
	silentBefore := keepalivesSilent.Value()

	st, err := cli.Dial("mute")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		tick := time.NewTicker(testKA / 4)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			if st.Send(&Message{Kind: "test.tick"}) != nil {
				return
			}
		}
	}()
	died := make(chan error, 1)
	go func() {
		_, err := st.Recv()
		died <- err
	}()
	var recvErr error
	select {
	case recvErr = <-died:
	case <-time.After(10 * testKA):
		t.Fatalf("session to a silent peer still alive after %v", 10*testKA)
	}
	elapsed := time.Since(start)
	var dead *SessionDeadError
	if !errors.As(recvErr, &dead) || !errors.Is(recvErr, ErrSessionSilent) {
		t.Fatalf("stream ended with %v, want a SessionDeadError wrapping ErrSessionSilent", recvErr)
	}
	if limit := (keepaliveMisses + 1) * testKA; elapsed > limit {
		t.Errorf("silent session died after %v, want within %v", elapsed, limit)
	}
	if n := keepalivesSilent.Value() - silentBefore; n != 1 {
		t.Errorf(`jxtaserve_keepalives_total{result="silent"} rose by %d, want 1`, n)
	}
}

// TestMuxBusySessionSendsNoKeepalive: frames flowing both ways every
// quarter interval for five intervals are proof enough; neither side
// sends a keepalive.
func TestMuxBusySessionSendsNoKeepalive(t *testing.T) {
	st, counting := echoPair(t)
	for end := time.Now().Add(5 * testKA); time.Now().Before(end); time.Sleep(testKA / 10) {
		if err := exchange(st); err != nil {
			t.Fatal(err)
		}
	}
	if n := counting.sent.Load(); n != 0 {
		t.Errorf("a busy session sent %d keepalives, want 0", n)
	}
}

// TestMuxIdleSessionStaysAlive: a session with no traffic for ten
// intervals lives on keepalives and still carries frames afterwards.
func TestMuxIdleSessionStaysAlive(t *testing.T) {
	st, counting := echoPair(t)
	if err := exchange(st); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * testKA)
	if err := exchange(st); err != nil {
		t.Fatalf("idle session died: %v", err)
	}
	if n := counting.sent.Load(); n == 0 {
		t.Error("an idle session sent no keepalive")
	}
}

// TestMuxSlowFrameKeepsSessionAlive: a frame that takes longer to
// arrive than a silent session may live — a large chunk over a modem —
// keeps its session alive, because every byte read off the socket
// counts as heard, not only a whole frame. The frame is written by
// hand, a piece every fifth of an interval, over keepaliveMisses+2
// intervals, with nothing else sent.
func TestMuxSlowFrameKeepsSessionAlive(t *testing.T) {
	tr := NewMux(TCP{}, WireOptions{})
	tr.kaEvery = testKA
	t.Cleanup(func() { tr.Close() })
	l, err := tr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := net.Dial("tcp", l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	payload := bytes.Repeat([]byte("slow"), 256)
	var wire bytes.Buffer
	if err := WriteBinaryMessage(&wire, helloFrame(defaultWindow)); err != nil {
		t.Fatal(err)
	}
	hello := wire.Len()
	// Stream 1 with the SYN bit: the dialler's first frame opens it.
	if err := WriteBinaryMessage(&wire, &Message{Kind: "test.slow", Stream: 1<<1 | 1, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(wire.Bytes()[:hello]); err != nil {
		t.Fatal(err)
	}
	frame := wire.Bytes()[hello:]
	pieces := 5 * (keepaliveMisses + 2)
	step := (len(frame) + pieces - 1) / pieces
	for len(frame) > 0 {
		time.Sleep(testKA / 5)
		n := min(step, len(frame))
		if _, err := c.Write(frame[:n]); err != nil {
			t.Fatalf("session hung up mid-frame: %v", err)
		}
		frame = frame[n:]
	}

	got := make(chan []byte, 1)
	go func() {
		defer close(got)
		if st, err := l.Accept(); err == nil {
			if m, err := st.Recv(); err == nil {
				got <- m.Payload
			}
		}
	}()
	select {
	case p := <-got:
		if !bytes.Equal(p, payload) {
			t.Fatalf("slow frame arrived as %d bytes, want the %d sent", len(p), len(payload))
		}
	case <-time.After(2 * time.Second):
		t.Fatal("slow frame never reached Accept: its session died while it arrived")
	}
}

// TestMuxDialBoundedBySilentListener: a listener that accepts and then
// says nothing — a stopped daemon whose kernel still holds the socket —
// fails every request to its address within the hello wait, concurrent
// ones included, with a *DialError: no dial waits for the handshake it
// queued behind to time out and then runs its own.
func TestMuxDialBoundedBySilentListener(t *testing.T) {
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
	tr := NewMux(TCP{}, WireOptions{})
	tr.helloWait = 300 * time.Millisecond
	t.Cleanup(func() { tr.Close() })
	h, err := NewHost("dialler", tr, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Close() })

	// Eight dials queued one behind another would take eight hello waits.
	const dials = 8
	errs := make(chan error, dials)
	start := time.Now()
	for i := 0; i < dials; i++ {
		go func() {
			_, err := h.Request(ln.Addr().String(), "test.silent", nil, nil)
			errs <- err
		}()
	}
	limit := tr.helloWait + time.Second
	for i := 0; i < dials; i++ {
		select {
		case err := <-errs:
			var de *DialError
			if !errors.As(err, &de) {
				t.Errorf("request to a silent listener returned %v, want a *DialError", err)
			}
		case <-time.After(limit + time.Second):
			t.Fatalf("request %d to a silent listener still blocked after %v", i, limit+time.Second)
		}
	}
	if elapsed := time.Since(start); elapsed > limit {
		t.Errorf("%d concurrent dials took %v, want within %v", dials, elapsed, limit)
	}
}
