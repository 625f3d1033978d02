// Package simnet provides the instrumented network used by the scaling
// experiments (T2): a jxtaserve.Transport that counts every message and
// byte crossing it, can impose a per-message latency, and can cut links
// to model consumer-connection loss. Because discovery and the pipe layer
// are written against the Transport interface, the exact protocol code
// measured here is the code deployed over TCP — the substitution the
// DESIGN.md ledger records for the paper's planet-scale claims.
//
// Beyond accounting, the network injects live faults (faults.go): per-link
// message drops, latency jitter, timed partitions and whole-peer
// kill/restart, optionally replayed from a churn.Trace timeline — the
// §3.6.2 downtime classes exercised against the real protocol stack.
package simnet

import (
	"sync"
	"sync/atomic"
	"time"

	"consumergrid/internal/jxtaserve"
)

// Network is an in-process message network with accounting and fault
// injection.
type Network struct {
	inner *jxtaserve.InProc
	// Latency is applied on every Send; zero disables the delay.
	Latency time.Duration

	messages  atomic.Int64
	bytes     atomic.Int64
	dropped   atomic.Int64
	corrupted atomic.Int64
	dials     atomic.Int64
	nFrozen   atomic.Int32 // len(frozen), read lock-free on every frame

	mu     sync.Mutex
	cut    map[string]bool   // addresses whose links are severed
	down   map[string]bool   // labels (peer names / addrs) killed via Kill
	frozen map[string]bool   // peer labels frozen via Freeze
	owners map[string]string // listener addr -> owning peer label
	faults map[string]LinkFaults
	links  map[string]*int64 // per-link Send counters for DropEvery
	parts  []partition
	conns  map[*conn]connMeta
	rng    faultRNG
}

// connMeta records a connection's endpoints for kill/partition matching.
type connMeta struct {
	src      string // dialling peer label ("" for the untagged transport)
	dstAddr  string // dialled address ("" for accepted conns)
	dstOwner string // peer label owning the dialled address, if known
}

// labels returns every label the connection is addressable by.
func (m connMeta) labels() []string {
	out := make([]string, 0, 3)
	for _, l := range []string{m.src, m.dstAddr, m.dstOwner} {
		if l != "" {
			out = append(out, l)
		}
	}
	return out
}

// New returns an empty simulated network.
func New() *Network {
	n := &Network{
		inner:  jxtaserve.NewInProc(),
		cut:    make(map[string]bool),
		down:   make(map[string]bool),
		frozen: make(map[string]bool),
		owners: make(map[string]string),
		faults: make(map[string]LinkFaults),
		links:  make(map[string]*int64),
		conns:  make(map[*conn]connMeta),
	}
	n.rng.seed(1)
	return n
}

// Messages reports the total messages sent across the network.
func (n *Network) Messages() int64 { return n.messages.Load() }

// Bytes reports the approximate total bytes sent (kind + headers +
// payload).
func (n *Network) Bytes() int64 { return n.bytes.Load() }

// Dropped reports messages lost to injected link faults.
func (n *Network) Dropped() int64 { return n.dropped.Load() }

// Corrupted reports result-bearing replies silently corrupted by
// injected byzantine faults.
func (n *Network) Corrupted() int64 { return n.corrupted.Load() }

// Dials reports successful Dial calls — the number of underlying
// connections ever established. With the mux on, this stays O(peer
// pairs) no matter how many pipes and RPCs ride the sessions.
func (n *Network) Dials() int64 { return n.dials.Load() }

// ResetCounters zeroes the accounting, e.g. between experiment phases.
func (n *Network) ResetCounters() {
	n.messages.Store(0)
	n.bytes.Store(0)
	n.dropped.Store(0)
	n.corrupted.Store(0)
}

// Cut severs the link to an address: subsequent dials fail, modelling a
// consumer peer dropping off DSL. Listeners stay registered so Restore
// re-enables them.
func (n *Network) Cut(addr string) {
	n.mu.Lock()
	n.cut[addr] = true
	n.mu.Unlock()
}

// Restore re-enables a previously cut address.
func (n *Network) Restore(addr string) {
	n.mu.Lock()
	delete(n.cut, addr)
	n.mu.Unlock()
}

// Peer returns a transport view tagged with a peer label. Connections
// dialled through it are attributed to the label, which is what lets
// Kill, Restart, Partition and DriveTrace target a whole peer rather
// than a single address. Hosts built on the untagged Network still work;
// they are simply anonymous to peer-level faults.
func (n *Network) Peer(label string) jxtaserve.Transport {
	return &peerTransport{net: n, label: label}
}

type peerTransport struct {
	net   *Network
	label string
}

func (p *peerTransport) Listen(addr string) (jxtaserve.Listener, error) {
	return p.net.listen(addr, p.label)
}

func (p *peerTransport) Dial(addr string) (jxtaserve.Conn, error) {
	return p.net.dial(addr, p.label)
}

// Listen implements jxtaserve.Transport.
func (n *Network) Listen(addr string) (jxtaserve.Listener, error) {
	return n.listen(addr, "")
}

// Dial implements jxtaserve.Transport.
func (n *Network) Dial(addr string) (jxtaserve.Conn, error) {
	return n.dial(addr, "")
}

func (n *Network) listen(addr, owner string) (jxtaserve.Listener, error) {
	l, err := n.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	if owner != "" {
		n.mu.Lock()
		n.owners[l.Addr()] = owner
		n.mu.Unlock()
	}
	return &listener{net: n, inner: l, owner: owner}, nil
}

func (n *Network) dial(addr, src string) (jxtaserve.Conn, error) {
	n.mu.Lock()
	meta := connMeta{src: src, dstAddr: addr, dstOwner: n.owners[addr]}
	if n.cut[addr] {
		n.mu.Unlock()
		return nil, &LinkCutError{Addr: addr}
	}
	for _, l := range meta.labels() {
		if n.down[l] {
			n.mu.Unlock()
			return nil, &PeerDownError{Label: l}
		}
	}
	if n.severedLocked(meta) {
		n.mu.Unlock()
		return nil, &PartitionError{From: src, To: addr}
	}
	n.mu.Unlock()
	c, err := n.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	n.dials.Add(1)
	return n.register(c, meta), nil
}

// register wraps an inner connection and records it for fault targeting.
func (n *Network) register(inner jxtaserve.Conn, meta connMeta) *conn {
	c := &conn{net: n, inner: inner, meta: meta}
	n.mu.Lock()
	n.conns[c] = meta
	n.mu.Unlock()
	return c
}

func (n *Network) unregister(c *conn) {
	n.mu.Lock()
	delete(n.conns, c)
	n.mu.Unlock()
}

// LinkCutError reports a dial to a severed address.
type LinkCutError struct {
	Addr string
}

func (e *LinkCutError) Error() string { return "simnet: link to " + e.Addr + " is cut" }

type listener struct {
	net   *Network
	inner jxtaserve.Listener
	owner string
}

func (l *listener) Accept() (jxtaserve.Conn, error) {
	c, err := l.inner.Accept()
	if err != nil {
		return nil, err
	}
	// Accepted connections are attributed to the listening peer so a
	// Kill breaks both directions of its conversations.
	return l.net.register(c, connMeta{src: l.owner}), nil
}

func (l *listener) Close() error { return l.inner.Close() }
func (l *listener) Addr() string { return l.inner.Addr() }

type conn struct {
	net   *Network
	inner jxtaserve.Conn
	meta  connMeta

	// muxed flips when a mux.hello passes through either direction:
	// the connection carries multiplexed streams, so injected faults
	// target individual streams instead of tearing the whole pipe down.
	muxed     atomic.Bool
	closeOnce sync.Once
}

// MessageSize approximates the wire size of a message.
func MessageSize(m *jxtaserve.Message) int64 {
	size := int64(len(m.Kind)) + int64(len(m.Payload))
	for k, v := range m.Headers {
		size += int64(len(k) + len(v))
	}
	return size
}

func (c *conn) Send(m *jxtaserve.Message) error {
	if c.net.isFrozen(c.meta) {
		return nil // vanishes: a powered-off peer breaks nothing
	}
	if m.Kind == jxtaserve.KindMuxHello {
		c.muxed.Store(true)
	}
	if c.net.Latency > 0 {
		time.Sleep(c.net.Latency)
	}
	m, err := c.net.applyFaults(c, m)
	if err != nil {
		return err
	}
	c.net.messages.Add(1)
	c.net.bytes.Add(MessageSize(m))
	return c.inner.Send(m)
}

func (c *conn) Recv() (*jxtaserve.Message, error) {
	for {
		m, err := c.inner.Recv()
		if err == nil && c.frozenEnd() {
			// An accepted conn knows only its own end, so a frame bound
			// for a frozen dialler vanishes here, on arrival.
			continue
		}
		if err == nil && m.Kind == jxtaserve.KindMuxHello {
			c.muxed.Store(true)
		}
		return m, err
	}
}

// Close hangs up both ends — unless this end is a frozen peer's: a
// powered-off machine hangs up on no one.
func (c *conn) Close() error {
	if c.frozenEnd() {
		return nil
	}
	return c.hangUp()
}

// frozenEnd reports whether this end of the conn belongs to a frozen
// peer.
func (c *conn) frozenEnd() bool { return c.net.isFrozen(connMeta{src: c.meta.src}) }

func (c *conn) hangUp() error {
	c.closeOnce.Do(func() { c.net.unregister(c) })
	return c.inner.Close()
}
