package simnet

import (
	"sync"

	"consumergrid/internal/jxtaserve"
)

// Tap wraps one peer's transport and tallies the payload bytes of every
// message the peer sends and receives, by message kind, and the number
// of messages each way. An RPC request
// counts under "rpc/<method>", so a chunk replica write
// ("rpc/overlay.chunk.put") is told apart from a job despatch. Dialled
// addresses are counted too, so a test can prove a peer never contacted
// a given host. Wrap below the mux (pass the tapped transport as the
// service's Transport): mux sessions carry the same typed messages.
type Tap struct {
	inner jxtaserve.Transport

	mu     sync.Mutex
	sent   map[string]int64
	recv   map[string]int64
	sentN  map[string]int
	recvN  map[string]int
	dialed map[string]int
}

// NewTap wraps a transport, normally Network.Peer(label).
func NewTap(inner jxtaserve.Transport) *Tap {
	return &Tap{
		inner:  inner,
		sent:   make(map[string]int64),
		recv:   make(map[string]int64),
		sentN:  make(map[string]int),
		recvN:  make(map[string]int),
		dialed: make(map[string]int),
	}
}

// Sent reports the payload bytes sent in messages of the kind.
func (t *Tap) Sent(kind string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sent[kind]
}

// SentMsgs reports how many messages of the kind were sent — the count
// that matters for kinds whose payload is empty, such as chunk.fetch.
func (t *Tap) SentMsgs(kind string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sentN[kind]
}

// RecvMsgs reports how many messages of the kind were received.
func (t *Tap) RecvMsgs(kind string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.recvN[kind]
}

// Recv reports the payload bytes received in messages of the kind.
func (t *Tap) Recv(kind string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.recv[kind]
}

// Dialed reports how many dials, successful or not, targeted addr.
func (t *Tap) Dialed(addr string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dialed[addr]
}

func (t *Tap) Listen(addr string) (jxtaserve.Listener, error) {
	l, err := t.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &tapListener{Listener: l, tap: t}, nil
}

func (t *Tap) Dial(addr string) (jxtaserve.Conn, error) {
	t.mu.Lock()
	t.dialed[addr]++
	t.mu.Unlock()
	c, err := t.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &tapConn{Conn: c, tap: t}, nil
}

func (t *Tap) count(sent bool, m *jxtaserve.Message) {
	kind := m.Kind
	if kind == jxtaserve.KindRPC {
		kind += "/" + m.Header("method")
	}
	t.mu.Lock()
	if sent {
		t.sent[kind] += int64(len(m.Payload))
		t.sentN[kind]++
	} else {
		t.recv[kind] += int64(len(m.Payload))
		t.recvN[kind]++
	}
	t.mu.Unlock()
}

type tapListener struct {
	jxtaserve.Listener
	tap *Tap
}

func (l *tapListener) Accept() (jxtaserve.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tapConn{Conn: c, tap: l.tap}, nil
}

type tapConn struct {
	jxtaserve.Conn
	tap *Tap
}

func (c *tapConn) Send(m *jxtaserve.Message) error {
	err := c.Conn.Send(m)
	if err == nil {
		c.tap.count(true, m)
	}
	return err
}

func (c *tapConn) Recv() (*jxtaserve.Message, error) {
	m, err := c.Conn.Recv()
	if err == nil {
		c.tap.count(false, m)
	}
	return m, err
}
