// Live fault injection for the simulated network: the paper's §3.6.2
// downtime classes ("connection lost, user intervenes, computational
// bandwidth not reached") made scriptable against the real protocol
// stack. Five fault classes are modelled:
//
//   - message drops (DropProb / DropEvery): a lost frame breaks the
//     carrying connection, the way a consumer DSL drop kills a TCP
//     stream — senders observe an error rather than silent loss;
//   - latency and jitter: per-link delay on every Send;
//   - partitions: timed splits between peer groups that block dials and
//     sever established crossing connections;
//   - peer kill/restart: every connection a peer is party to breaks and
//     new dials fail until Restart, optionally replayed from a
//     churn.Trace so the §3.6.2 availability model drives live faults;
//   - peer freeze/thaw: the machine is turned off. Every frame to or
//     from the peer vanishes, yet no connection breaks and dials still
//     connect, to meet silence — only the mux's session liveness finds
//     it.
package simnet

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"sync"
	"time"

	"consumergrid/internal/churn"
	"consumergrid/internal/jxtaserve"
)

// LinkFaults is one link's fault profile. A link is named by the dialled
// address, the label of the peer owning it (when dialled through a
// Peer-tagged transport), or "*" for every link.
type LinkFaults struct {
	// DropProb drops each message with this probability (seeded RNG;
	// see FaultSeed). A dropped message breaks its connection.
	DropProb float64
	// DropEvery drops every n-th message on the link (deterministic;
	// 0 disables). Counted per link key, independently of DropProb.
	DropEvery int64
	// Latency is added to every Send on the link.
	Latency time.Duration
	// Jitter adds a uniform random [0, Jitter) on top of Latency.
	Jitter time.Duration
	// CorruptEvery corrupts every n-th result-bearing reply on the link
	// (one marked with jxtaserve.HeaderResults: a farm job's outputs;
	// deterministic; 0 disables) — the byzantine-peer model: frames
	// still flow, their contents silently lie. Only those replies are
	// touched; other traffic stays intact so the corrupted result is
	// delivered and voted on rather than erroring out, which is exactly
	// the failure a result quorum must catch.
	CorruptEvery int64
	// CorruptProb corrupts each result-bearing reply with this
	// probability (seeded RNG; see FaultSeed). Counted independently of
	// CorruptEvery. A corruption XORs a byte derived from the link key
	// into the payload's tail byte (lieMask), so byzantine peers on
	// different links tell different lies.
	CorruptProb float64
}

// faultRNG is the seeded randomness behind DropProb and Jitter. Each
// link key gets its own *rand.Rand, derived from the base seed and the
// key: one link's draw sequence no longer depends on how traffic on
// other links interleaves with it, so a seeded fault schedule replays
// identically per link even under concurrent senders — and concurrent
// links stop contending on one shared lock.
type faultRNG struct {
	mu   sync.Mutex
	base int64
	rngs map[string]*linkRNG
}

type linkRNG struct {
	mu  sync.Mutex
	rng *rand.Rand
}

func (f *faultRNG) seed(s int64) {
	f.mu.Lock()
	f.base = s
	f.rngs = make(map[string]*linkRNG)
	f.mu.Unlock()
}

// forLink returns the link's RNG, deriving its seed from (base, key) on
// first use.
func (f *faultRNG) forLink(key string) *linkRNG {
	f.mu.Lock()
	defer f.mu.Unlock()
	l, ok := f.rngs[key]
	if !ok {
		h := fnv.New64a()
		fmt.Fprintf(h, "%d/%s", f.base, key)
		l = &linkRNG{rng: rand.New(rand.NewSource(int64(h.Sum64())))}
		f.rngs[key] = l
	}
	return l
}

func (l *linkRNG) float() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rng.Float64()
}

// FaultSeed reseeds the randomness behind DropProb and Jitter so fault
// schedules replay deterministically.
func (n *Network) FaultSeed(seed int64) { n.rng.seed(seed) }

// SetLinkFaults installs a fault profile for a link key: a dialable
// address, a Peer label, or "*" for all links. The zero LinkFaults
// clears the key. Profiles apply to live connections immediately.
func (n *Network) SetLinkFaults(key string, f LinkFaults) {
	n.mu.Lock()
	if (f == LinkFaults{}) {
		delete(n.faults, key)
	} else {
		n.faults[key] = f
		if n.links[key] == nil {
			n.links[key] = new(int64)
		}
	}
	n.mu.Unlock()
}

// resolveFaultsLocked finds the profile governing a connection. Keys are
// tried most-specific first: dialled address, owner label, source label,
// then "*". Callers hold n.mu.
func (n *Network) resolveFaultsLocked(meta connMeta) (key string, cfg LinkFaults, ok bool) {
	for _, k := range []string{meta.dstAddr, meta.dstOwner, meta.src, "*"} {
		if k == "" {
			continue
		}
		if f, found := n.faults[k]; found {
			return k, f, true
		}
	}
	return "", LinkFaults{}, false
}

// DropError reports a message lost to an injected link fault. The
// carrying connection is broken, so subsequent use fails with ErrClosed
// — the §3.6.2 "connection lost" class.
type DropError struct {
	Link string
}

func (e *DropError) Error() string { return "simnet: message dropped on link " + e.Link }

// StreamFaultError reports an injected fault whose blast radius is one
// mux stream: the carrying connection survives and sibling streams keep
// flowing. It satisfies jxtaserve.StreamScopedError, which is how the
// mux knows to reset just the stream instead of killing the session.
type StreamFaultError struct {
	Stream uint64
	Err    error
}

func (e *StreamFaultError) Error() string {
	return fmt.Sprintf("simnet: stream %d fault: %v", e.Stream, e.Err)
}

func (e *StreamFaultError) Unwrap() error      { return e.Err }
func (e *StreamFaultError) StreamScoped() bool { return true }

// PeerDownError reports a dial involving a killed peer.
type PeerDownError struct {
	Label string
}

func (e *PeerDownError) Error() string { return "simnet: peer " + e.Label + " is down" }

// PartitionError reports a dial across an active partition.
type PartitionError struct {
	From, To string
}

func (e *PartitionError) Error() string {
	return "simnet: " + e.From + " -> " + e.To + " crosses a partition"
}

// applyFaults runs one Send through the link's fault profile: delay,
// the drop decision, then payload corruption. On a drop the connection
// is closed (both ends observe ErrClosed) and a DropError is returned.
// The returned message is the one to put on the wire — the original, or
// a corrupted copy (the caller's message is never mutated in place,
// since senders may retain or pool their buffers).
func (n *Network) applyFaults(c *conn, m *jxtaserve.Message) (*jxtaserve.Message, error) {
	switch m.Kind {
	case jxtaserve.KindMuxHello, jxtaserve.KindMuxReset, jxtaserve.KindMuxWindow:
		// Mux control frames ride a reliable control channel: dropping a
		// credit grant or a reset would wedge flow control rather than
		// model a data-plane fault. They don't tick the drop clock either,
		// so the data-frame fault rate matches an unmuxed run.
		return m, nil
	}
	perStream := m.Stream != 0 && c.muxed.Load()
	if perStream {
		// Partitions act per stream on muxed connections: the session
		// survives (it is shared infrastructure, like the physical NIC),
		// but any stream whose traffic crosses the split resets.
		n.mu.Lock()
		severed := n.severedLocked(c.meta)
		n.mu.Unlock()
		if severed {
			c.resetStream(m.Stream, "partition")
			return m, &StreamFaultError{Stream: m.Stream,
				Err: &PartitionError{From: c.meta.src, To: c.meta.dstAddr}}
		}
	}
	n.mu.Lock()
	key, cfg, ok := n.resolveFaultsLocked(c.meta)
	if !ok {
		n.mu.Unlock()
		return m, nil
	}
	// Per-link send counter: the deterministic DropEvery clock. The
	// counter is keyed by the *resolved* profile key plus the link
	// identity so each direction of each link counts independently.
	counterKey := key
	if id := c.meta.dstAddr; id != "" {
		counterKey = key + "|" + id
	} else if id := c.meta.src; id != "" {
		counterKey = key + "|" + id
	}
	ctr := n.links[counterKey]
	if ctr == nil {
		ctr = new(int64)
		n.links[counterKey] = ctr
	}
	*ctr++
	count := *ctr
	// The corruption clock ticks only on result-bearing replies, so
	// CorruptEvery counts results, not protocol chatter.
	var dataCount int64
	if m.Kind == jxtaserve.KindRPCReply && m.Header(jxtaserve.HeaderResults) != "" &&
		(cfg.CorruptEvery > 0 || cfg.CorruptProb > 0) {
		dctr := n.links[counterKey+"#data"]
		if dctr == nil {
			dctr = new(int64)
			n.links[counterKey+"#data"] = dctr
		}
		*dctr++
		dataCount = *dctr
	}
	n.mu.Unlock()

	var lrng *linkRNG
	if cfg.Jitter > 0 || cfg.DropProb > 0 || cfg.CorruptProb > 0 {
		lrng = n.rng.forLink(counterKey)
	}
	if cfg.Latency > 0 || cfg.Jitter > 0 {
		d := cfg.Latency
		if cfg.Jitter > 0 {
			d += time.Duration(lrng.float() * float64(cfg.Jitter))
		}
		time.Sleep(d)
	}
	drop := cfg.DropEvery > 0 && count%cfg.DropEvery == 0
	if !drop && cfg.DropProb > 0 && lrng.float() < cfg.DropProb {
		drop = true
	}
	if drop {
		n.dropped.Add(1)
		if perStream {
			// The drop clock stays per link (so fault rates are comparable
			// with unmuxed runs) but the damage lands on one stream: the
			// far side learns via a synthetic reset, siblings keep flowing.
			c.resetStream(m.Stream, "injected drop")
			return m, &StreamFaultError{Stream: m.Stream, Err: &DropError{Link: counterKey}}
		}
		c.Close()
		return m, &DropError{Link: counterKey}
	}
	if dataCount > 0 && len(m.Payload) > 0 {
		corrupt := cfg.CorruptEvery > 0 && dataCount%cfg.CorruptEvery == 0
		if !corrupt && cfg.CorruptProb > 0 && lrng.float() < cfg.CorruptProb {
			corrupt = true
		}
		if corrupt {
			n.corrupted.Add(1)
			m = corruptMessage(m, lieMask(key))
		}
	}
	return m, nil
}

// lieMask is what a corruption on the link keyed key XORs into the
// payload's tail byte: the first non-zero byte of the key's FNV-1a
// hash, so two liars disagree with the truth and with each other.
func lieMask(key string) byte {
	h := fnv.New32a()
	h.Write([]byte(key))
	for v := h.Sum32(); v != 0; v >>= 8 {
		if b := byte(v); b != 0 {
			return b
		}
	}
	return 0xff
}

// corruptMessage returns a copy of the message with the payload's tail
// byte flipped through mask — the smallest byzantine lie: a frame that
// still decodes (a result list ends in value or address bytes, not
// framing) yet yields a different result digest at the controller.
func corruptMessage(m *jxtaserve.Message, mask byte) *jxtaserve.Message {
	p := make([]byte, len(m.Payload))
	copy(p, m.Payload)
	p[len(p)-1] ^= mask
	return &jxtaserve.Message{Kind: m.Kind, Headers: m.Headers, Payload: p, Stream: m.Stream}
}

// resetStream tells the far side that one stream died, without touching
// the carrying connection. Sent through the inner conn so the synthetic
// reset cannot itself be dropped or counted as traffic.
func (c *conn) resetStream(id uint64, cause string) {
	rst := &jxtaserve.Message{Kind: jxtaserve.KindMuxReset, Stream: id}
	rst.SetHeader("cause", "simnet: "+cause)
	c.inner.Send(rst)
}

// --- peer kill / restart ----------------------------------------------------

// Kill takes a peer (by label or address) off the network: every
// connection it is party to breaks and dials involving it fail until
// Restart. The peer's listeners stay registered — the process is alive,
// its connectivity is gone, which is exactly the consumer-grid DSL-drop
// model.
func (n *Network) Kill(label string) {
	n.mu.Lock()
	n.down[label] = true
	victims := n.matchConnsLocked(func(meta connMeta) bool {
		for _, l := range meta.labels() {
			if l == label {
				return true
			}
		}
		return false
	})
	n.mu.Unlock()
	for _, c := range victims {
		c.hangUp()
	}
}

// Restart brings a killed peer back: dials involving it succeed again.
func (n *Network) Restart(label string) {
	n.mu.Lock()
	delete(n.down, label)
	n.mu.Unlock()
}

// Freeze silences a peer, named by its Peer label, the way a powered-off
// machine goes quiet: every frame to or from it vanishes from then on,
// mux control frames included, but no connection breaks — not even one
// the frozen peer closes itself, which its far end must find silent and
// hang up — so senders see no error, and dials to it still connect and
// then hear nothing. Frames it sent before it froze are still
// delivered. Thaw undoes it.
func (n *Network) Freeze(label string) {
	n.mu.Lock()
	n.frozen[label] = true
	n.nFrozen.Store(int32(len(n.frozen)))
	n.mu.Unlock()
}

// Thaw restores delivery to and from a frozen peer. Frames sent while
// it was frozen stay lost.
func (n *Network) Thaw(label string) {
	n.mu.Lock()
	delete(n.frozen, label)
	n.nFrozen.Store(int32(len(n.frozen)))
	n.mu.Unlock()
}

// isFrozen reports whether a connection is addressable by a frozen
// label. With nothing frozen it takes no lock: it runs on every frame.
func (n *Network) isFrozen(meta connMeta) bool {
	if n.nFrozen.Load() == 0 {
		return false
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.frozen[meta.src] || n.frozen[meta.dstAddr] || n.frozen[meta.dstOwner]
}

// matchConnsLocked snapshots connections matching the predicate.
// Callers hold n.mu.
func (n *Network) matchConnsLocked(match func(connMeta) bool) []*conn {
	var out []*conn
	for c, meta := range n.conns {
		if match(meta) {
			out = append(out, c)
		}
	}
	return out
}

// --- partitions -------------------------------------------------------------

// partition is one active split: traffic between sideA and sideB fails.
type partition struct {
	sideA, sideB map[string]bool
}

func toSet(labels []string) map[string]bool {
	s := make(map[string]bool, len(labels))
	for _, l := range labels {
		s[l] = true
	}
	return s
}

// Partition splits the network between two label groups (peer labels or
// addresses): dials crossing the split fail and established crossing
// connections are severed. Heal removes it. Multiple partitions stack.
// Muxed connections are not closed — their crossing streams reset one
// by one as they next send, which is the per-stream fault model the mux
// benchmarks measure.
func (n *Network) Partition(groupA, groupB []string) {
	p := partition{sideA: toSet(groupA), sideB: toSet(groupB)}
	n.mu.Lock()
	n.parts = append(n.parts, p)
	victims := n.matchConnsLocked(func(meta connMeta) bool {
		return crosses(p, meta)
	})
	n.mu.Unlock()
	for _, c := range victims {
		if c.muxed.Load() {
			continue
		}
		c.Close()
	}
}

// PartitionFor installs a partition that heals itself after d.
func (n *Network) PartitionFor(d time.Duration, groupA, groupB []string) {
	n.Partition(groupA, groupB)
	time.AfterFunc(d, n.Heal)
}

// Heal removes every active partition.
func (n *Network) Heal() {
	n.mu.Lock()
	n.parts = nil
	n.mu.Unlock()
}

// crosses reports whether a connection spans the partition: its source
// labels on one side and destination labels on the other.
func crosses(p partition, meta connMeta) bool {
	srcA, srcB := p.sideA[meta.src], p.sideB[meta.src]
	var dstA, dstB bool
	for _, l := range []string{meta.dstAddr, meta.dstOwner} {
		if l == "" {
			continue
		}
		dstA = dstA || p.sideA[l]
		dstB = dstB || p.sideB[l]
	}
	return (srcA && dstB) || (srcB && dstA)
}

// severedLocked reports whether a dial described by meta crosses any
// active partition. Callers hold n.mu.
func (n *Network) severedLocked(meta connMeta) bool {
	for _, p := range n.parts {
		if crosses(p, meta) {
			return true
		}
	}
	return false
}

// --- scripted schedules -----------------------------------------------------

// Event is one scripted fault action at an offset from Schedule time.
type Event struct {
	At time.Duration
	Do func(n *Network)
}

// Schedule replays fault events on their offsets in a background
// goroutine and returns a stop function. Events run in At order.
func (n *Network) Schedule(events ...Event) (stop func()) {
	evs := append([]Event(nil), events...)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	done := make(chan struct{})
	var once sync.Once
	go func() {
		start := time.Now()
		for _, ev := range evs {
			wait := ev.At - time.Since(start)
			if wait > 0 {
				select {
				case <-done:
					return
				case <-time.After(wait):
				}
			} else {
				select {
				case <-done:
					return
				default:
				}
			}
			ev.Do(n)
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

// DriveTrace replays a churn.Trace availability timeline against a peer
// label: down intervals Kill it, up intervals Restart it. One virtual
// second maps to the given real duration. It returns a stop function.
// This is the bridge from the paper's §3.6.2 churn model (internal/churn)
// to live faults on real protocol code.
func (n *Network) DriveTrace(tr *churn.Trace, label string, perSecond time.Duration) (stop func()) {
	var events []Event
	for _, iv := range tr.Intervals {
		at := time.Duration(iv.Start * float64(perSecond))
		if iv.Up {
			events = append(events, Event{At: at, Do: func(n *Network) { n.Restart(label) }})
		} else {
			events = append(events, Event{At: at, Do: func(n *Network) { n.Kill(label) }})
		}
	}
	return n.Schedule(events...)
}
