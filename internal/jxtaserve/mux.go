// Stream multiplexing: the one wire every peer speaks. MuxTransport
// wraps any Transport so that every Conn handed to callers is a
// lightweight Stream riding a single underlying connection per peer
// pair: pipes and RPCs between two peers stop costing one TCP
// connection each.
//
// A session opens with one mux.hello each way, carrying the wire
// version and the sender's per-stream receive window:
//
//	dialer                   listener
//	------                   --------
//	mux.hello{v:1,win}  ----->
//	                    <-----  mux.hello{v:1,win}
//
// A listener closes, unanswered, any connection whose first frame is
// not a v1 hello, so no handler ever serves a peer that speaks anything
// else.
//
// Inside a session every frame carries its stream ID, encoded on the
// wire as id<<1|syn: the low bit marks the opener's first frame, which
// is what creates the stream on the receiving side. An unknown ID
// without the SYN bit is a straggler from an already-reset stream and
// is dropped — concurrent openers send their first frames in arbitrary
// ID order, so no high-water heuristic can tell fresh from stale; the
// explicit bit can. Flow control is credit-based: a sender starts with
// the peer's advertised window and spends one credit per frame; the
// receiver returns credit (mux.win) as the application drains its
// queue. Streams close and reset independently (mux.rst) without
// disturbing siblings; only an I/O error on the shared connection, or
// the peer's silence, kills the whole session.
//
// The session is the one failure detector (DESIGN §10.4). A session
// that has sent nothing for keepaliveInterval sends one mux.ka; a
// session that has received nothing for keepaliveMisses intervals dies
// with ErrSessionSilent. A busy session sends no keepalive, and the
// check costs one re-armed timer per session plus a frame flag each
// way: a powered-off peer, which breaks no connection, is found within
// (keepaliveMisses+1) intervals.
package jxtaserve

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Session control message kinds (never seen by applications).
const (
	KindMuxHello     = "mux.hello" // headers: v, win; opens a session
	KindMuxReset     = "mux.rst"   // headers: cause; kills one stream
	KindMuxWindow    = "mux.win"   // headers: n; returns n credits to the sender
	KindMuxKeepalive = "mux.ka"    // no headers; proves an idle sender alive
)

const (
	wireVersion   = "1"  // the v header of every hello
	defaultWindow = 64   // per-stream frames in flight before credit blocks
	maxWindow     = 4096 // cap on what a peer may make us buffer per stream
	acceptBacklog = 128  // inbound streams awaiting Accept

	helloTimeout = 5 * time.Second // bounds each side's hello, and a TCP connect

	keepaliveInterval = time.Second // a session silent this long sends a mux.ka
	keepaliveMisses   = 3           // intervals with nothing received that kill a session
)

// ErrSessionSilent is the failure detector's verdict: the peer sent
// nothing, not even a keepalive, for keepaliveMisses intervals, or it
// took a connect and sent no hello within the hello wait. It reaches
// callers wrapped in a SessionDeadError or a dial error; check with
// errors.Is.
var ErrSessionSilent = errors.New("jxtaserve: peer silent")

// WireOptions tunes the one wire: binary v1 over the stream mux.
type WireOptions struct {
	// Deprecated: ignored. Every peer multiplexes.
	Mux bool
	// Deprecated: ignored. Every TCP conn frames in binary v1.
	Binary bool
	// Window is the per-stream receive window in frames, advertised in
	// the session hello; 0 means defaultWindow.
	Window int
}

// StreamScopedError marks a Send failure whose blast radius is one
// stream, not the shared connection — simnet's per-stream fault
// injection returns these so a simulated drop resets the stream while
// sibling streams keep flowing, exactly as a real mux would contain a
// per-stream reset.
type StreamScopedError interface {
	error
	StreamScoped() bool
}

func isStreamScoped(err error) bool {
	var se StreamScopedError
	return errors.As(err, &se) && se.StreamScoped()
}

// StreamResetError reports a stream reset by the peer (or by injected
// faults), carrying the advertised cause.
type StreamResetError struct {
	Stream uint64
	Cause  string
}

func (e *StreamResetError) Error() string {
	return fmt.Sprintf("jxtaserve: stream %d reset: %s", e.Stream, e.Cause)
}

// SessionDeadError reports that the shared connection under a stream
// died; it wraps the I/O error that killed it.
type SessionDeadError struct {
	Err error
}

func (e *SessionDeadError) Error() string { return "jxtaserve: mux session dead: " + e.Err.Error() }
func (e *SessionDeadError) Unwrap() error { return e.Err }

// --- transport wrapper --------------------------------------------------------

// MuxTransport implements Transport over an inner one, multiplexing
// dialled conns into per-address sessions and demultiplexing accepted
// connections back into per-stream Conns.
type MuxTransport struct {
	inner     Transport
	opts      WireOptions
	helloWait time.Duration // helloTimeout; tests shorten it
	kaEvery   time.Duration // keepaliveInterval; tests shorten it

	mu       sync.Mutex
	peers    map[string]*muxPeer
	sessions map[*session]struct{}
	lns      map[*muxListener]struct{}
	closed   bool
}

// muxPeer serialises dialling per address so concurrent Dials share one
// handshake instead of racing to open parallel sessions. An entry lives
// in MuxTransport.peers only while a dial or a live session holds it.
type muxPeer struct {
	mu   sync.Mutex
	sess *session
	err  error // the failed handshake that forgot this entry, if any
}

// NewMux wraps inner with stream multiplexing.
func NewMux(inner Transport, opts WireOptions) *MuxTransport {
	if opts.Window <= 0 {
		opts.Window = defaultWindow
	}
	if opts.Window > maxWindow {
		opts.Window = maxWindow
	}
	return &MuxTransport{
		inner:     inner,
		opts:      opts,
		helloWait: helloTimeout,
		kaEvery:   keepaliveInterval,
		peers:     make(map[string]*muxPeer),
		sessions:  make(map[*session]struct{}),
		lns:       make(map[*muxListener]struct{}),
	}
}

func (t *MuxTransport) peer(addr string) *muxPeer {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.peers[addr]
	if p == nil {
		p = &muxPeer{}
		t.peers[addr] = p
	}
	return p
}

// forget unmaps p, if addr still maps to it. The caller holds p.mu, so
// the lock order is Dial's: p.mu before t.mu.
func (t *MuxTransport) forget(addr string, p *muxPeer) {
	t.mu.Lock()
	if t.peers[addr] == p {
		delete(t.peers, addr)
	}
	t.mu.Unlock()
}

// lockPeer returns addr's entry with its mu held. An entry forgotten
// while we waited for its lock is passed over for the current one, so
// there is still one session per peer — unless a handshake failed on
// it: then every dial that waited for that handshake shares its error,
// so N dials to a silent peer cost one hello wait, not N.
func (t *MuxTransport) lockPeer(addr string) (*muxPeer, error) {
	for {
		p := t.peer(addr)
		p.mu.Lock()
		t.mu.Lock()
		mapped := t.peers[addr] == p
		t.mu.Unlock()
		if mapped {
			return p, nil
		}
		err := p.err
		p.mu.Unlock()
		if err != nil {
			return nil, err
		}
	}
}

// Dial returns a stream on the (possibly fresh) session to addr. A
// fresh session's connect and hello are each bounded by helloTimeout.
func (t *MuxTransport) Dial(addr string) (Conn, error) {
	p, err := t.lockPeer(addr)
	if err != nil {
		return nil, err
	}
	defer p.mu.Unlock()
	if p.sess != nil && !p.sess.isDead() {
		if st, err := p.sess.openStream(); err == nil {
			return st, nil
		}
		// Session died between the check and the open; fall through and
		// establish a fresh one.
	}
	p.sess = nil
	raw, peerWin, err := t.handshake(addr)
	if err != nil {
		p.err = err
		t.forget(addr, p)
		return nil, err
	}
	sess := newSession(raw, true, peerWin, t.opts.Window, nil)
	sess.onDead = func() {
		t.untrack(sess)
		p.mu.Lock()
		if p.sess == sess {
			p.sess = nil
			t.forget(addr, p)
		}
		p.mu.Unlock()
	}
	if !t.track(sess) {
		raw.Close()
		t.forget(addr, p)
		return nil, ErrClosed
	}
	p.sess = sess
	sess.start(t.kaEvery)
	return sess.openStream()
}

// handshake connects to addr and runs the dialler half of the hello,
// returning the conn and the listener's window.
func (t *MuxTransport) handshake(addr string) (Conn, int, error) {
	raw, err := t.inner.Dial(addr)
	if err != nil {
		return nil, 0, err
	}
	win := 0
	if err = raw.Send(helloFrame(t.opts.Window)); err == nil {
		win, err = t.recvHello(raw)
	}
	if err != nil {
		raw.Close()
		return nil, 0, err
	}
	return raw, win, nil
}

// recvHello reads the peer's hello within helloWait and returns the
// receive window it advertises. A peer that says nothing in time is
// hung up on, with ErrSessionSilent: a dialler that connects and stays
// silent, or a listener that accepts and never answers (a stopped
// machine whose kernel still holds the socket, a frozen simnet peer).
// Neither side's hello wait can hold a goroutine, a socket or a dial
// longer than that, and a dial to a silent listener is not retried.
func (t *MuxTransport) recvHello(raw Conn) (int, error) {
	hangUp := time.AfterFunc(t.helloWait, func() { raw.Close() })
	m, err := raw.Recv()
	if !hangUp.Stop() {
		return 0, fmt.Errorf("no %s within %v: %w", KindMuxHello, t.helloWait, ErrSessionSilent)
	}
	if err != nil {
		return 0, err
	}
	return helloWindow(m)
}

// helloFrame is the session-opening frame both sides send.
func helloFrame(window int) *Message {
	return &Message{Kind: KindMuxHello, Headers: map[string]string{
		"v": wireVersion, "win": strconv.Itoa(window)}}
}

// helloWindow checks that m is a v1 hello and returns the receive window
// it advertises.
func helloWindow(m *Message) (int, error) {
	if m.Kind != KindMuxHello || m.Header("v") != wireVersion {
		return 0, fmt.Errorf("jxtaserve: session opened with %s v=%q, want %s v=%s",
			m.Kind, m.Header("v"), KindMuxHello, wireVersion)
	}
	return parseWindow(m.Header("win")), nil
}

// Listen wraps the inner listener so Accept yields per-stream Conns.
func (t *MuxTransport) Listen(addr string) (Listener, error) {
	inner, err := t.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	l := &muxListener{
		t:        t,
		inner:    inner,
		acceptCh: make(chan Conn, acceptBacklog),
		done:     make(chan struct{}),
	}
	t.mu.Lock()
	t.lns[l] = struct{}{}
	t.mu.Unlock()
	go l.run()
	return l, nil
}

// track records a new session so Close can kill it, and refuses it once
// the transport is closed: a handshake that finishes after Close must
// not leave a session that nothing will kill.
func (t *MuxTransport) track(s *session) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return false
	}
	t.sessions[s] = struct{}{}
	return true
}

func (t *MuxTransport) untrack(s *session) {
	t.mu.Lock()
	delete(t.sessions, s)
	t.mu.Unlock()
}

// Close tears down every listener and kills every live session.
func (t *MuxTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	lns := make([]*muxListener, 0, len(t.lns))
	for l := range t.lns {
		lns = append(lns, l)
	}
	sessions := make([]*session, 0, len(t.sessions))
	for s := range t.sessions {
		sessions = append(sessions, s)
	}
	t.mu.Unlock()
	for _, l := range lns {
		l.Close()
	}
	for _, s := range sessions {
		s.kill(ErrClosed)
	}
	return nil
}

type muxListener struct {
	t        *MuxTransport
	inner    Listener
	acceptCh chan Conn
	done     chan struct{}
	once     sync.Once

	mu  sync.Mutex
	err error
}

// run accepts raw connections and hands each to a handshake goroutine,
// so one slow or stalled dialler cannot block the others.
func (l *muxListener) run() {
	for {
		raw, err := l.inner.Accept()
		if err != nil {
			l.mu.Lock()
			l.err = err
			l.mu.Unlock()
			l.Close()
			return
		}
		go l.serve(raw)
	}
}

// serve opens a session on one inbound connection, or closes it
// unanswered when its first frame is not a v1 hello or does not arrive
// within helloWait, so a silent dialler cannot hold this goroutine and
// its socket.
func (l *muxListener) serve(raw Conn) {
	peerWin, err := l.t.recvHello(raw)
	if err != nil || raw.Send(helloFrame(l.t.opts.Window)) != nil {
		raw.Close()
		return
	}
	sess := newSession(raw, false, peerWin, l.t.opts.Window, l.deliver)
	sess.onDead = func() { l.t.untrack(sess) }
	if !l.t.track(sess) {
		raw.Close()
		return
	}
	sess.start(l.t.kaEvery)
}

// deliver queues an accepted stream for Accept.
func (l *muxListener) deliver(c Conn) {
	select {
	case l.acceptCh <- c:
	case <-l.done:
		c.Close()
	}
}

func (l *muxListener) Accept() (Conn, error) {
	select {
	case c := <-l.acceptCh:
		return c, nil
	case <-l.done:
		// Drain conns that raced with close.
		select {
		case c := <-l.acceptCh:
			return c, nil
		default:
		}
		l.mu.Lock()
		err := l.err
		l.mu.Unlock()
		if err == nil {
			err = ErrClosed
		}
		return nil, err
	}
}

func (l *muxListener) Close() error {
	l.once.Do(func() {
		close(l.done)
		l.inner.Close()
		l.t.mu.Lock()
		delete(l.t.lns, l)
		l.t.mu.Unlock()
	})
	return nil
}

func (l *muxListener) Addr() string { return l.inner.Addr() }

// parseWindow decodes a win header, clamped to sane bounds so a hostile
// hello can neither stall us (0) nor make us buffer unbounded frames.
func parseWindow(s string) int {
	n, err := strconv.Atoi(s)
	if err != nil || n < 1 {
		return 1
	}
	if n > maxWindow {
		return maxWindow
	}
	return n
}

// --- session ------------------------------------------------------------------

// session is one multiplexed connection: a single demux goroutine fans
// inbound frames out to streams; outbound frames from every stream are
// serialised through writeMu. Its liveness timer (tick) reads and
// clears two flags that traffic sets each way.
type session struct {
	conn    Conn
	writeMu sync.Mutex // serialises conn.Send across streams

	parity  uint64 // local stream IDs ≡ parity (mod 2); dialler 1, listener 0
	sendWin int    // peer's receive window: initial credit per stream
	recvWin int    // our receive queue capacity per stream

	onStream func(Conn) // inbound stream delivery; nil rejects inbound
	onDead   func()

	// heard and spoke mark traffic received and sent since the last
	// tick; our own keepalives do not set spoke. demux sets heard per
	// frame, and a TCP conn per socket read, so a frame slower to arrive
	// than the detector's window (a megabyte over a modem) proves its
	// sender alive while it arrives. Each is read before it is written,
	// so a busy session writes it once per tick, not once per frame.
	heard, spoke atomic.Bool

	mu      sync.Mutex
	streams map[uint64]*stream
	nextID  uint64
	err     error
	ka      *time.Timer // the liveness timer, under mu

	dead     chan struct{}
	deadOnce sync.Once
	kaQuiet  uint32 // ticks in a row with nothing heard; tick's alone, under mu
}

func newSession(conn Conn, dialler bool, sendWin, recvWin int, onStream func(Conn)) *session {
	s := &session{
		conn:     conn,
		sendWin:  sendWin,
		recvWin:  recvWin,
		onStream: onStream,
		streams:  make(map[uint64]*stream),
		dead:     make(chan struct{}),
	}
	if dialler {
		s.parity, s.nextID = 1, 1
	} else {
		s.parity, s.nextID = 0, 2
	}
	if s.sendWin < 1 {
		s.sendWin = 1
	}
	if s.recvWin < 1 {
		s.recvWin = 1
	}
	if tc, ok := conn.(*tcpConn); ok {
		tc.heard = &s.heard // before demux starts reading
	}
	return s
}

// start arms the liveness timer to tick every interval and launches the
// demux loop; split from newSession so callers can finish wiring
// callbacks before frames flow.
func (s *session) start(every time.Duration) {
	s.mu.Lock()
	if !s.isDead() {
		s.ka = time.AfterFunc(every, func() { s.tick(every) })
	}
	s.mu.Unlock()
	go s.demux()
}

// tick is the failure detector, run by the session's timer every
// interval. A session that heard nothing for keepaliveMisses ticks in a
// row dies with ErrSessionSilent; one that sent nothing since the last
// tick sends a mux.ka. The timer is re-armed before the keepalive goes
// out, so a send that blocks on a wedged connection cannot stall the
// detector that will kill it.
func (s *session) tick(every time.Duration) {
	s.mu.Lock()
	if s.isDead() {
		s.mu.Unlock()
		return
	}
	if s.heard.Swap(false) {
		s.kaQuiet = 0
	} else {
		s.kaQuiet++
	}
	silent := s.kaQuiet >= keepaliveMisses
	if !silent {
		s.ka.Reset(every)
	}
	s.mu.Unlock()
	if silent {
		keepalivesSilent.Inc()
		s.kill(ErrSessionSilent)
		return
	}
	// A sender holding writeMu is putting a frame on the wire anyway.
	// Best effort, like a credit grant: a broken conn kills the session
	// through demux.
	if !s.spoke.Swap(false) && s.writeMu.TryLock() {
		if s.conn.Send(&Message{Kind: KindMuxKeepalive}) == nil {
			keepalivesSent.Inc()
		}
		s.writeMu.Unlock()
	}
}

func (s *session) isDead() bool {
	select {
	case <-s.dead:
		return true
	default:
		return false
	}
}

// openStream allocates a locally-initiated stream. No frame is sent:
// the first data frame on the new ID implicitly opens it on the peer.
func (s *session) openStream() (*stream, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.isDead() {
		err := s.err
		if err == nil {
			err = ErrClosed
		}
		return nil, &SessionDeadError{Err: err}
	}
	id := s.nextID
	s.nextID += 2
	return s.newStreamLocked(id), nil
}

func (s *session) newStreamLocked(id uint64) *stream {
	st := &stream{
		sess:   s,
		id:     id,
		credit: int64(s.sendWin),
		q:      make(chan *Message, s.recvWin),
	}
	st.creditCond = sync.NewCond(&st.mu)
	s.streams[id] = st
	return st
}

func (s *session) lookup(id uint64) *stream {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.streams[id]
}

func (s *session) remove(id uint64) {
	s.mu.Lock()
	delete(s.streams, id)
	s.mu.Unlock()
}

// send serialises one frame onto the shared connection.
func (s *session) send(m *Message) error {
	if !s.spoke.Load() {
		s.spoke.Store(true)
	}
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	return s.conn.Send(m)
}

// demux routes inbound frames to streams until the connection dies.
func (s *session) demux() {
	for {
		m, err := s.conn.Recv()
		if err != nil {
			s.kill(err)
			return
		}
		if !s.heard.Load() {
			s.heard.Store(true)
		}
		// Wire stream field is id<<1|syn; control frames may echo a data
		// frame's SYN bit (simnet's synthetic resets do), so always mask.
		id := m.Stream >> 1
		switch m.Kind {
		case KindMuxReset:
			if st := s.lookup(id); st != nil {
				cause := m.Header("cause")
				if cause == "" {
					cause = "peer reset"
				}
				st.reset(&StreamResetError{Stream: id, Cause: cause}, false)
			}
		case KindMuxWindow:
			if st := s.lookup(id); st != nil {
				if n, err := strconv.Atoi(m.Header("n")); err == nil && n > 0 {
					st.grant(n)
				}
			}
		case KindMuxKeepalive:
			// Heard above; that is all a keepalive is for.
		default:
			s.dispatch(m)
		}
	}
}

// dispatch delivers a data frame, opening the stream when the SYN bit
// marks the opener's first frame. Frames for unknown IDs without SYN
// belong to already-reset streams and are dropped — the peer learned of
// the reset from our mux.rst and stops counting them against credit.
func (s *session) dispatch(m *Message) {
	syn := m.Stream&1 == 1
	id := m.Stream >> 1
	m.Stream = id // applications see the logical ID, not the wire encoding
	s.mu.Lock()
	st := s.streams[id]
	if st != nil {
		s.mu.Unlock()
		st.push(m)
		return
	}
	fresh := syn && id != 0 && id%2 != s.parity && !s.isDead()
	if fresh && s.onStream != nil {
		st = s.newStreamLocked(id)
		st.synSent = true // peer opened it; our frames never carry SYN
		s.mu.Unlock()
		st.push(m)
		s.onStream(st)
		return
	}
	s.mu.Unlock()
	if fresh {
		// Peer opened a stream toward a pure dialler session; refuse it
		// so the peer's sender fails fast instead of starving on credit.
		rst := &Message{Kind: KindMuxReset, Stream: id << 1}
		rst.SetHeader("cause", "peer accepts no inbound streams")
		s.send(rst)
	}
}

// kill tears the whole session down: every stream resets locally and
// the shared connection closes.
func (s *session) kill(err error) {
	s.deadOnce.Do(func() {
		s.mu.Lock()
		s.err = err
		// Closed under s.mu, before the snapshot: stream registration
		// also holds s.mu, so every stream either lands in the snapshot
		// (and resets below) or observes the dead session and refuses.
		close(s.dead)
		if s.ka != nil {
			s.ka.Stop()
		}
		streams := make([]*stream, 0, len(s.streams))
		for _, st := range s.streams {
			streams = append(streams, st)
		}
		s.mu.Unlock()
		s.conn.Close()
		for _, st := range streams {
			st.reset(&SessionDeadError{Err: err}, false)
		}
		if s.onDead != nil {
			s.onDead()
		}
	})
}

// --- stream -------------------------------------------------------------------

// stream is one multiplexed Conn. The demux goroutine is the only
// pusher into q; Recv is the only consumer; Send never touches q.
type stream struct {
	sess *session
	id   uint64

	mu         sync.Mutex
	creditCond *sync.Cond // broadcast on grant, reset, session death
	credit     int64      // frames the peer will buffer; never negative
	consumed   int        // frames drained since the last credit return
	closed     bool
	synSent    bool // first frame not yet sent; next Send carries the SYN bit
	cause      error
	q          chan *Message
}

// ID reports the stream's session-local identifier.
func (st *stream) ID() uint64 { return st.id }

// Send ships one frame, blocking while the peer's window is exhausted.
func (st *stream) Send(m *Message) error {
	st.mu.Lock()
	for st.credit <= 0 && !st.closed {
		st.creditCond.Wait()
	}
	if st.closed {
		cause := st.cause
		st.mu.Unlock()
		if cause == nil {
			cause = ErrClosed
		}
		return cause
	}
	st.credit--
	wire := st.id << 1
	if !st.synSent {
		wire |= 1 // SYN: this frame opens the stream on the peer
		st.synSent = true
	}
	st.mu.Unlock()
	// Shallow copy so tagging the stream ID never mutates the caller's
	// message (pipes retry sends of the same *Message after faults).
	wm := *m
	wm.Stream = wire
	err := st.sess.send(&wm)
	if err == nil {
		return nil
	}
	if isStreamScoped(err) {
		// The fault hit this stream only; the injector already told the
		// peer (synthetic mux.rst), so reset locally without another one.
		st.reset(err, false)
		return err
	}
	st.sess.kill(err)
	return err
}

// Recv returns the next frame, granting credit back to the peer as the
// queue drains. After a reset, frames already queued still drain before
// the cause surfaces.
func (st *stream) Recv() (*Message, error) {
	m, ok := <-st.q
	if !ok {
		st.mu.Lock()
		cause := st.cause
		st.mu.Unlock()
		if cause == nil {
			cause = ErrClosed
		}
		return nil, cause
	}
	st.mu.Lock()
	st.consumed++
	grant := 0
	if !st.closed && st.consumed*2 >= st.sess.recvWin {
		grant = st.consumed
		st.consumed = 0
	}
	st.mu.Unlock()
	if grant > 0 {
		win := &Message{Kind: KindMuxWindow, Stream: st.id << 1}
		win.SetHeader("n", strconv.Itoa(grant))
		// Best-effort: if the session is dying the reset path surfaces it.
		st.sess.send(win)
	}
	return m, nil
}

// Close resets the stream and tells the peer. Idempotent.
func (st *stream) Close() error {
	st.reset(ErrClosed, true)
	return nil
}

// push delivers an inbound frame from the demux loop. The queue is
// sized to the window we advertised, so overflow means the peer ignored
// flow control: the stream resets rather than block the demux loop (a
// stalled sibling must never head-of-line-block the session).
func (st *stream) push(m *Message) {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return
	}
	select {
	case st.q <- m:
		st.mu.Unlock()
	default:
		st.mu.Unlock()
		st.reset(&StreamResetError{Stream: st.id, Cause: "flow-control window exceeded"}, true)
	}
}

// grant returns credit spent by our sends.
func (st *stream) grant(n int) {
	st.mu.Lock()
	st.credit += int64(n)
	st.creditCond.Broadcast()
	st.mu.Unlock()
}

// reset closes the stream exactly once: queued frames stay readable,
// blocked senders wake with the cause, and optionally the peer is told.
func (st *stream) reset(cause error, tellPeer bool) {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return
	}
	st.closed = true
	st.cause = cause
	close(st.q)
	st.creditCond.Broadcast()
	st.mu.Unlock()
	st.sess.remove(st.id)
	if tellPeer {
		rst := &Message{Kind: KindMuxReset, Stream: st.id << 1}
		if cause != nil && cause != ErrClosed {
			rst.SetHeader("cause", cause.Error())
		}
		// Best-effort: a dead session has already reset the peer's side.
		st.sess.send(rst)
	}
}
