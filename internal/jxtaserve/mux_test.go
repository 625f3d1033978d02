package jxtaserve

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// muxPair wires two MuxTransports over one in-process network and
// returns the client transport plus the server's listener. Both sides
// share opts; Close of both transports is registered with t.Cleanup.
func muxPair(t *testing.T, opts WireOptions) (*MuxTransport, Listener) {
	t.Helper()
	inner := NewInProc()
	srv := NewMux(inner, opts)
	cli := NewMux(inner, opts)
	t.Cleanup(func() { cli.Close(); srv.Close() })
	l, err := srv.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	return cli, l
}

// TestMuxPipeEndToEnd runs the full host/pipe stack over the mux on
// both transports: binary frames over TCP, message values in process.
func TestMuxPipeEndToEnd(t *testing.T) {
	t.Run("tcp-binary", func(t *testing.T) {
		tr := NewMux(TCP{}, WireOptions{})
		t.Cleanup(func() { tr.Close() })
		testPipeEndToEnd(t, tr)
	})
	t.Run("inproc-xml", func(t *testing.T) {
		tr := NewMux(NewInProc(), WireOptions{})
		t.Cleanup(func() { tr.Close() })
		testPipeEndToEnd(t, tr)
	})
}

// TestMuxPerStreamOrdering interleaves N concurrent sender goroutines,
// one per stream, and requires every stream to deliver its frames in
// send order even though they all share one connection.
func TestMuxPerStreamOrdering(t *testing.T) {
	const streams, frames = 8, 200
	cli, l := muxPair(t, WireOptions{Window: 16})

	var wg sync.WaitGroup
	errCh := make(chan error, 2*streams)
	for i := 0; i < streams; i++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			c, err := cli.Dial("srv")
			if err != nil {
				errCh <- err
				return
			}
			defer c.Close()
			for seq := 0; seq < frames; seq++ {
				m := &Message{Kind: "test.seq"}
				m.SetHeader("worker", strconv.Itoa(worker))
				m.SetHeader("seq", strconv.Itoa(seq))
				if err := c.Send(m); err != nil {
					errCh <- fmt.Errorf("worker %d seq %d: %w", worker, seq, err)
					return
				}
			}
		}(i)
	}
	for i := 0; i < streams; i++ {
		c, err := l.Accept()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(c Conn) {
			defer wg.Done()
			for seq := 0; seq < frames; seq++ {
				m, err := c.Recv()
				if err != nil {
					errCh <- fmt.Errorf("recv: %w", err)
					return
				}
				if got, _ := strconv.Atoi(m.Header("seq")); got != seq {
					errCh <- fmt.Errorf("worker %s: frame %d arrived as seq %d", m.Header("worker"), seq, got)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// TestMuxCreditNeverNegative is the flow-control property test: across
// randomized windows, frame counts and consumer pacing, a sampler
// watches the sender's credit and requires 0 <= credit <= window at
// every observation.
func TestMuxCreditNeverNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 5; round++ {
		window := 1 + rng.Intn(8)
		frames := 50 + rng.Intn(100)
		t.Run(fmt.Sprintf("window=%d_frames=%d", window, frames), func(t *testing.T) {
			cli, l := muxPair(t, WireOptions{Window: window})
			c, err := cli.Dial("srv")
			if err != nil {
				t.Fatal(err)
			}
			st, ok := c.(*stream)
			if !ok {
				t.Fatalf("Dial returned %T, want *stream", c)
			}
			stop := make(chan struct{})
			var violation atomic.Value
			go func() {
				for {
					select {
					case <-stop:
						return
					default:
					}
					st.mu.Lock()
					credit := st.credit
					st.mu.Unlock()
					if credit < 0 || credit > int64(window) {
						violation.Store(fmt.Sprintf("credit %d outside [0,%d]", credit, window))
						return
					}
				}
			}()
			// Start the sender before Accept: a stream only materialises on
			// the listener once its first data frame arrives.
			done := make(chan error, 1)
			go func() {
				for i := 0; i < frames; i++ {
					if err := c.Send(&Message{Kind: "test.credit"}); err != nil {
						done <- err
						return
					}
				}
				done <- nil
			}()
			sc, err := l.Accept()
			if err != nil {
				t.Fatal(err)
			}
			consumerRng := rand.New(rand.NewSource(int64(round)))
			for i := 0; i < frames; i++ {
				if _, err := sc.Recv(); err != nil {
					t.Fatal(err)
				}
				if consumerRng.Intn(4) == 0 {
					time.Sleep(time.Duration(consumerRng.Intn(200)) * time.Microsecond)
				}
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			close(stop)
			if v := violation.Load(); v != nil {
				t.Fatal(v)
			}
		})
	}
}

// TestMuxResetDoesNotStallSiblings resets one stream mid-transfer and
// requires its sibling on the same session to finish unharmed, with the
// reset surfacing on the victim as a StreamResetError.
func TestMuxResetDoesNotStallSiblings(t *testing.T) {
	const frames = 300
	cli, l := muxPair(t, WireOptions{Window: 8})

	victim, err := cli.Dial("srv")
	if err != nil {
		t.Fatal(err)
	}
	sibling, err := cli.Dial("srv")
	if err != nil {
		t.Fatal(err)
	}
	// Prime both streams so the server can tell them apart.
	if err := victim.Send(&Message{Kind: "test.victim"}); err != nil {
		t.Fatal(err)
	}
	if err := sibling.Send(&Message{Kind: "test.sibling"}); err != nil {
		t.Fatal(err)
	}
	conns := make(map[string]Conn, 2)
	for i := 0; i < 2; i++ {
		c, err := l.Accept()
		if err != nil {
			t.Fatal(err)
		}
		m, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		conns[m.Kind] = c
	}
	srvVictim, srvSibling := conns["test.victim"], conns["test.sibling"]
	if srvVictim == nil || srvSibling == nil {
		t.Fatalf("stream identification failed: %v", conns)
	}

	// The victim's sender pumps until the server resets it mid-transfer.
	victimErr := make(chan error, 1)
	go func() {
		for {
			if err := victim.Send(&Message{Kind: "test.victim"}); err != nil {
				victimErr <- err
				return
			}
		}
	}()
	for i := 0; i < 5; i++ {
		if _, err := srvVictim.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	srvVictim.Close() // reset mid-transfer

	// The sibling must complete a full transfer in both directions.
	sibDone := make(chan error, 1)
	go func() {
		for i := 0; i < frames; i++ {
			if err := sibling.Send(&Message{Kind: "test.sibling"}); err != nil {
				sibDone <- err
				return
			}
		}
		sibDone <- sibling.Close()
	}()
	for i := 0; i < frames; i++ {
		if _, err := srvSibling.Recv(); err != nil {
			t.Fatalf("sibling stalled at frame %d: %v", i, err)
		}
	}
	if err := <-sibDone; err != nil {
		t.Fatalf("sibling sender: %v", err)
	}
	select {
	case err := <-victimErr:
		var reset *StreamResetError
		if !errors.As(err, &reset) {
			t.Fatalf("victim send error = %v, want *StreamResetError", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("victim sender never observed the reset")
	}
}

// TestMuxGoroutineLeakOverChurn opens and closes sessions and streams
// in waves and requires the goroutine count to settle back to baseline:
// no demux loops or blocked senders may outlive their transports.
func TestMuxGoroutineLeakOverChurn(t *testing.T) {
	before := runtime.NumGoroutine()
	for wave := 0; wave < 10; wave++ {
		func() {
			inner := NewInProc()
			srv := NewMux(inner, WireOptions{Window: 4})
			cli := NewMux(inner, WireOptions{Window: 4})
			l, err := srv.Listen("srv")
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					c, err := l.Accept()
					if err != nil {
						return
					}
					go func(c Conn) {
						for {
							if _, err := c.Recv(); err != nil {
								c.Close()
								return
							}
						}
					}(c)
				}
			}()
			for i := 0; i < 8; i++ {
				c, err := cli.Dial("srv")
				if err != nil {
					t.Fatal(err)
				}
				for j := 0; j < 3; j++ {
					if err := c.Send(&Message{Kind: "test.churn"}); err != nil {
						t.Fatal(err)
					}
				}
				// Half the streams close cleanly, half are abandoned to the
				// transport Close below.
				if i%2 == 0 {
					c.Close()
				}
			}
			cli.Close()
			srv.Close()
			wg.Wait()
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines: started with %d, still %d after churn\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMuxForgetsDeadSessions: a session whose peer has gone stops
// being tracked by the dialler's transport, so a long-lived peer that
// meets many short-lived ones holds only the sessions still alive.
func TestMuxForgetsDeadSessions(t *testing.T) {
	inner := NewInProc()
	cli := NewMux(inner, WireOptions{})
	t.Cleanup(func() { cli.Close() })
	for i := 0; i < 8; i++ {
		srv := NewMux(inner, WireOptions{})
		l, err := srv.Listen("")
		if err != nil {
			t.Fatal(err)
		}
		c, err := cli.Dial(l.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Send(&Message{Kind: "test.hello"}); err != nil {
			t.Fatal(err)
		}
		srv.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		cli.mu.Lock()
		n := len(cli.sessions)
		cli.mu.Unlock()
		if n == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d sessions to departed peers still tracked", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestMuxForgetsDeadPeers: the dialler's per-address entries go with
// their sessions, and a failed dial leaves none behind, so a long-lived
// peer that meets many short-lived ones maps only the peers still live.
// Concurrent dials race each peer's departure, so entries are forgotten
// while other dials wait on them.
func TestMuxForgetsDeadPeers(t *testing.T) {
	inner := NewInProc()
	cli := NewMux(inner, WireOptions{})
	t.Cleanup(func() { cli.Close() })
	for i := 0; i < 200; i++ {
		srv := NewMux(inner, WireOptions{})
		l, err := srv.Listen("")
		if err != nil {
			t.Fatal(err)
		}
		c, err := cli.Dial(l.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Send(&Message{Kind: "test.hello"}); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Either outcome is fine; only the entries are checked.
				if c, err := cli.Dial(l.Addr()); err == nil {
					c.Close()
				}
			}()
		}
		srv.Close()
		wg.Wait()
	}
	if _, err := cli.Dial("nobody"); err == nil {
		t.Fatal("dial to an unbound address succeeded")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		cli.mu.Lock()
		n := len(cli.peers)
		cli.mu.Unlock()
		if n == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d entries for departed peers still mapped", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestMuxHangsUpSilentDialers: a listener closes a conn whose first
// frame does not arrive within the hello wait, so diallers that connect
// and say nothing hold no serve goroutine and no socket.
func TestMuxHangsUpSilentDialers(t *testing.T) {
	tr := NewMux(TCP{}, WireOptions{})
	tr.helloWait = 50 * time.Millisecond
	t.Cleanup(func() { tr.Close() })
	l, err := tr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()

	const silent = 20
	var wg sync.WaitGroup
	var held atomic.Int64
	for i := 0; i < silent; i++ {
		raw, err := TCP{}.Dial(l.Addr())
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer raw.Close()
			timer := time.AfterFunc(5*time.Second, func() { held.Add(1); raw.Close() })
			defer timer.Stop()
			if m, err := raw.Recv(); err == nil {
				t.Errorf("listener sent %s to a silent dialler", m.Kind)
			}
		}()
	}
	wg.Wait()
	if n := held.Load(); n != 0 {
		t.Fatalf("listener held %d of %d silent conns past the hello wait", n, silent)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before the silent conns, still %d after", baseline, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// countingTransport counts Dial calls, standing in for the number of
// real network connections a transport opens.
type countingTransport struct {
	Transport
	dials atomic.Int64
}

func (c *countingTransport) Dial(addr string) (Conn, error) {
	conn, err := c.Transport.Dial(addr)
	if err == nil {
		c.dials.Add(1)
	}
	return conn, err
}

// TestMuxConnsPerPeerStaysFlat opens four pipes plus RPC traffic between
// one peer pair and requires them all to ride a single dialled
// connection — the O(peers), not O(pipes), property.
func TestMuxConnsPerPeerStaysFlat(t *testing.T) {
	counting := &countingTransport{Transport: NewInProc()}
	tr := NewMux(counting, WireOptions{})
	t.Cleanup(func() { tr.Close() })
	recv, send := newHostPair(t, tr)

	var outs []*OutputPipe
	for i := 0; i < 4; i++ {
		pipe, ad, err := recv.OpenInput(fmt.Sprintf("flat/pipe/%d", i), 4)
		if err != nil {
			t.Fatal(err)
		}
		defer pipe.Close()
		out, err := send.BindOutput(ad)
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, out)
	}
	recv.Handle("echo", func(req *Message) (*Message, error) {
		return &Message{Payload: req.Payload}, nil
	})
	for i := 0; i < 3; i++ {
		if _, err := send.Request(recv.Addr(), "echo", []byte("x"), nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, out := range outs {
		out.Close()
	}
	if dials := counting.dials.Load(); dials != 1 {
		t.Fatalf("4 pipes + 3 RPCs dialled %d connections, want 1 shared session", dials)
	}
}

// TestMuxRefusesNonHello pins the one handshake: a listener closes,
// unanswered, any connection whose first frame is not a v1 hello. Each
// probe dials the bare TCP transport under a muxed host and sends one
// first frame — an rpc, a pipe.bind, a hello of another version — and
// must read end-of-stream: no handler runs, no pipe binds, and the
// listener's goroutines return to their baseline.
func TestMuxRefusesNonHello(t *testing.T) {
	tr := NewMux(TCP{}, WireOptions{})
	t.Cleanup(func() { tr.Close() })
	h, err := NewHost("listener", tr, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Close() })
	var served atomic.Int64
	h.Handle("probe.echo", func(req *Message) (*Message, error) {
		served.Add(1)
		return &Message{Payload: req.Payload}, nil
	})
	pipe, _, err := h.OpenInput("probe/sink", 1)
	if err != nil {
		t.Fatal(err)
	}
	// A served bind would count our hang-up as its sender's EOF and
	// close the pipe.
	pipe.ExpectEOFs(1)
	baseline := runtime.NumGoroutine()

	probes := []struct {
		name  string
		first *Message
	}{
		{"rpc", &Message{Kind: KindRPC, Headers: map[string]string{"method": "probe.echo"}}},
		{"pipe.bind", &Message{Kind: KindPipeBind, Headers: map[string]string{"pipe": "probe/sink"}}},
		{"hello-v2", &Message{Kind: KindMuxHello, Headers: map[string]string{"v": "2", "win": "64"}}},
	}
	for _, p := range probes {
		t.Run(p.name, func(t *testing.T) {
			raw, err := TCP{}.Dial(h.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer raw.Close()
			var timedOut atomic.Bool
			timer := time.AfterFunc(5*time.Second, func() { timedOut.Store(true); raw.Close() })
			defer timer.Stop()
			if err := raw.Send(p.first); err != nil {
				t.Fatal(err)
			}
			if m, err := raw.Recv(); err == nil {
				t.Fatalf("listener answered a %s first frame with %s", p.name, m.Kind)
			}
			if timedOut.Load() {
				t.Fatalf("listener kept a conn that opened with %s", p.name)
			}
		})
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before the probes, still %d after", baseline, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if n := served.Load(); n != 0 {
		t.Errorf("handler ran %d times for refused conns", n)
	}
	select {
	case _, open := <-pipe.C:
		t.Errorf("a refused bind reached the pipe (channel open: %v)", open)
	default:
	}
}
