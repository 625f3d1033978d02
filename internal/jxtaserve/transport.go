package jxtaserve

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
)

// Conn is one bidirectional message stream between two peers. Send and
// Recv are each safe for one concurrent caller; interleaving multiple
// senders requires external serialisation (the pipe layer does this).
type Conn interface {
	Send(m *Message) error
	Recv() (*Message, error)
	Close() error
}

// Listener accepts inbound connections.
type Listener interface {
	Accept() (Conn, error)
	Close() error
	// Addr is the dialable address of this listener.
	Addr() string
}

// Transport abstracts the network: TCP for real deployments, InProc for
// tests and single-process experiments. The pipe and discovery layers are
// transport-agnostic, which is what lets the same protocol code run over
// the simnet simulator in the scaling experiments.
type Transport interface {
	Listen(addr string) (Listener, error)
	Dial(addr string) (Conn, error)
}

// ErrClosed is returned on use of a closed connection or listener.
var ErrClosed = errors.New("jxtaserve: closed")

// --- TCP --------------------------------------------------------------------

// TCP is the production transport. Addresses are host:port; Listen with
// port 0 picks a free port (read it back from Addr). Every conn frames
// its messages in binary v1 from its first byte.
type TCP struct{}

type tcpListener struct {
	l    net.Listener
	addr string // l.Addr().String(), which allocates on every call
}

type tcpConn struct {
	c     net.Conn
	br    *bufio.Reader // reads through Read, below the buffer
	bw    *bufio.Writer
	mu    sync.Mutex   // serialises Send (frame integrity)
	heard *atomic.Bool // the owning mux session's; set by every read that returns bytes
}

// Listen implements Transport.
func (TCP) Listen(addr string) (Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &tcpListener{l: l, addr: l.Addr().String()}, nil
}

// Dial implements Transport. The connect gets helloTimeout, like the
// hello after it: a peer that never answers the SYN fails the dial.
func (TCP) Dial(addr string) (Conn, error) {
	c, err := net.DialTimeout("tcp", addr, helloTimeout)
	if err != nil {
		return nil, err
	}
	return newTCPConn(c), nil
}

// bwPool recycles write buffers across connection lifetimes: sessions
// come and go as donors join and leave, and each bufio.Writer carries a
// 4 KiB buffer worth reusing. The read side is deliberately
// not pooled — Close may race with a blocked Recv (that is how callers
// unblock it), so handing the reader to another conn would alias it.
var bwPool = sync.Pool{New: func() any { return bufio.NewWriter(nil) }}

func newTCPConn(c net.Conn) *tcpConn {
	bw := bwPool.Get().(*bufio.Writer)
	bw.Reset(c)
	tc := &tcpConn{c: c, bw: bw}
	tc.br = bufio.NewReader(tc)
	return tc
}

// Read feeds br from the socket. Any bytes read, even part of a frame,
// mark the owning session heard.
func (c *tcpConn) Read(p []byte) (int, error) {
	n, err := c.c.Read(p)
	if n > 0 && c.heard != nil && !c.heard.Load() {
		c.heard.Store(true)
	}
	return n, err
}

func (l *tcpListener) Accept() (Conn, error) {
	c, err := l.l.Accept()
	if err != nil {
		return nil, err
	}
	return newTCPConn(c), nil
}

func (l *tcpListener) Close() error { return l.l.Close() }
func (l *tcpListener) Addr() string { return l.addr }

func (c *tcpConn) Send(m *Message) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.bw == nil {
		return ErrClosed
	}
	if err := WriteBinaryMessage(c.bw, m); err != nil {
		return err
	}
	return c.bw.Flush()
}

func (c *tcpConn) Recv() (*Message, error) { return ReadBinaryMessage(c.br) }

func (c *tcpConn) Close() error {
	err := c.c.Close()
	c.mu.Lock()
	if c.bw != nil {
		c.bw.Reset(nil)
		bwPool.Put(c.bw)
		c.bw = nil
	}
	c.mu.Unlock()
	return err
}

// --- in-process -------------------------------------------------------------

// InProc is a process-local transport: addresses are arbitrary strings
// registered in this InProc instance. Two peers talk through paired
// message channels; no serialisation happens, but messages are still
// framed values so behaviour matches TCP (tests marshal explicitly when
// they need byte-level checks).
type InProc struct {
	mu        sync.Mutex
	listeners map[string]*inprocListener
	nextAuto  int
}

// NewInProc returns an empty in-process network.
func NewInProc() *InProc {
	return &InProc{listeners: make(map[string]*inprocListener)}
}

type inprocListener struct {
	net    *InProc
	addr   string
	accept chan *inprocConn
	done   chan struct{}
	once   sync.Once
}

type inprocShared struct {
	closed chan struct{}
	once   sync.Once
}

func (s *inprocShared) close() { s.once.Do(func() { close(s.closed) }) }

type inprocConn struct {
	out    chan<- *Message
	in     <-chan *Message
	shared *inprocShared
}

// Listen implements Transport. An empty address allocates a unique one.
func (n *InProc) Listen(addr string) (Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if addr == "" {
		n.nextAuto++
		addr = fmt.Sprintf("inproc-%d", n.nextAuto)
	}
	if _, taken := n.listeners[addr]; taken {
		return nil, fmt.Errorf("jxtaserve: address %q in use", addr)
	}
	l := &inprocListener{
		net: n, addr: addr,
		accept: make(chan *inprocConn),
		done:   make(chan struct{}),
	}
	n.listeners[addr] = l
	return l, nil
}

// Dial implements Transport.
func (n *InProc) Dial(addr string) (Conn, error) {
	n.mu.Lock()
	l, ok := n.listeners[addr]
	n.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("jxtaserve: no listener at %q", addr)
	}
	a2b := make(chan *Message, 16)
	b2a := make(chan *Message, 16)
	shared := &inprocShared{closed: make(chan struct{})}
	client := &inprocConn{out: a2b, in: b2a, shared: shared}
	server := &inprocConn{out: b2a, in: a2b, shared: shared}
	select {
	case l.accept <- server:
		return client, nil
	case <-l.done:
		return nil, ErrClosed
	}
}

func (l *inprocListener) Accept() (Conn, error) {
	select {
	case c := <-l.accept:
		return c, nil
	case <-l.done:
		return nil, ErrClosed
	}
}

func (l *inprocListener) Close() error {
	l.once.Do(func() {
		close(l.done)
		l.net.mu.Lock()
		delete(l.net.listeners, l.addr)
		l.net.mu.Unlock()
	})
	return nil
}

func (l *inprocListener) Addr() string { return l.addr }

func (c *inprocConn) Send(m *Message) error {
	// Check closed first so a Send after Close in the same goroutine
	// fails deterministically even when buffer space remains.
	select {
	case <-c.shared.closed:
		return ErrClosed
	default:
	}
	select {
	case c.out <- m:
		return nil
	case <-c.shared.closed:
		return ErrClosed
	}
}

func (c *inprocConn) Recv() (*Message, error) {
	select {
	case m := <-c.in:
		return m, nil
	case <-c.shared.closed:
		// Drain any messages that raced with close.
		select {
		case m := <-c.in:
			return m, nil
		default:
		}
		return nil, ErrClosed
	}
}

func (c *inprocConn) Close() error {
	c.shared.close()
	return nil
}
