package overlay

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"consumergrid/internal/advert"
	"consumergrid/internal/jxtaserve"
	"consumergrid/internal/metrics"
	"consumergrid/internal/trace"
)

// Overlay RPC method names. They ride the same jxtaserve RPC facility
// as the triana.* and disc.* protocols.
const (
	methodPublish    = "overlay.publish"     // headers: version, replica; payload: advert XML
	methodRetract    = "overlay.retract"     // headers: id, version, replica
	methodQuery      = "overlay.query"       // payload: query XML; reply: advert list
	methodSubscribe  = "overlay.subscribe"   // headers: sub, addr; payload: query XML
	methodUnsub      = "overlay.unsubscribe" // headers: sub, addr
	methodNotify     = "overlay.notify"      // headers: sub, id, version, event; payload: advert XML
	methodSyncDigest = "overlay.sync.digest" // payload: digest vector; reply: digest vector
	methodSyncPull   = "overlay.sync.pull"   // headers: shards; reply: entry list
)

// Notification event names carried in the notify "event" header.
const (
	eventUpdate  = "update"
	eventRetract = "retract"
)

// SuperOptions configures a super-peer.
type SuperOptions struct {
	// Ring is the super-peer membership this node places keys on. The
	// node's own host address must be a member. Required.
	Ring *Ring
	// Replication is the advert replication factor R (default
	// DefaultReplication, capped by ring size at placement time).
	Replication int
	// SyncInterval enables the periodic anti-entropy loop; zero leaves
	// sync to explicit SyncOnce calls (tests, smoke harnesses).
	SyncInterval time.Duration
	// SweepInterval is how often expired adverts are tombstoned and
	// retractions pushed (default 1s; negative disables the loop).
	SweepInterval time.Duration
	// Registry receives overlay_* series (default metrics.Default()).
	Registry *metrics.Registry
	// Tracer records publish→replicate→notify spans (default
	// trace.Default()).
	Tracer *trace.Recorder
	// Now overrides the clock for deterministic expiry tests.
	Now func() time.Time
	// Chunks, when set, makes this super a chunk replica holder: it
	// accepts overlay.chunk.put writes into the vault and serves them
	// back over the host's chunk-fetch conversation. Nil refuses chunk
	// writes (a discovery-only super).
	Chunks ChunkVault
	// Logf receives diagnostics; may be nil.
	Logf func(format string, args ...any)
}

// subscription is one registered pushed query.
type subscription struct {
	key   string // addr + "/" + sub ID, the dedup key
	subID string
	addr  string // subscriber's host address (overlay.notify target)
	query advert.Query
}

// SuperPeer is one node of the replicated discovery tier: it stores the
// adverts the ring places on it, answers queries from its shard,
// replicates accepted writes to the other owners, pushes matching
// adverts to subscribers, and keeps its replicas convergent through
// anti-entropy sync.
type SuperPeer struct {
	host    *jxtaserve.Host
	store   *store
	opts    SuperOptions
	metrics *superMetrics
	tracer  *trace.Recorder

	bg       sync.WaitGroup
	shutdown chan struct{}
	closed   sync.Once

	mu      sync.Mutex
	subs    map[string]*subscription
	syncIdx int
}

// NewSuper attaches a super-peer to a host and registers its RPC
// handlers immediately.
func NewSuper(host *jxtaserve.Host, opts SuperOptions) (*SuperPeer, error) {
	if opts.Ring == nil {
		return nil, fmt.Errorf("overlay: SuperOptions.Ring required")
	}
	if opts.Replication <= 0 {
		opts.Replication = DefaultReplication
	}
	if opts.SweepInterval == 0 {
		opts.SweepInterval = time.Second
	}
	if opts.Tracer == nil {
		opts.Tracer = trace.Default()
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	s := &SuperPeer{
		host:     host,
		store:    newStore(opts.Now),
		opts:     opts,
		metrics:  newSuperMetrics(opts.Registry, host.PeerID()),
		tracer:   opts.Tracer,
		shutdown: make(chan struct{}),
		subs:     make(map[string]*subscription),
	}
	s.metrics.ringSize.Set(float64(opts.Ring.Len()))
	host.Handle(methodPublish, s.handlePublish)
	host.Handle(methodRetract, s.handleRetract)
	host.Handle(methodQuery, s.handleQuery)
	host.Handle(methodSubscribe, s.handleSubscribe)
	host.Handle(methodUnsub, s.handleUnsubscribe)
	host.Handle(methodSyncDigest, s.handleSyncDigest)
	host.Handle(methodSyncPull, s.handleSyncPull)
	host.Handle(methodChunkPut, s.handleChunkPut)
	if opts.Chunks != nil && !host.HasChunkSource() {
		// Serve chunk fetches from the vault unless the embedding
		// service already installed a source with its own accounting.
		host.SetChunkSource(opts.Chunks.Get)
	}
	if opts.SweepInterval > 0 {
		s.goBG(func() { s.loop(opts.SweepInterval, func() { s.SweepOnce() }) })
	}
	if opts.SyncInterval > 0 {
		s.goBG(func() {
			s.loop(opts.SyncInterval, func() {
				if _, err := s.SyncOnce(); err != nil {
					s.logf("overlay: %s sync: %v", s.host.PeerID(), err)
				}
			})
		})
	}
	return s, nil
}

// Close stops the background loops and waits for in-flight pushes.
// The host itself is owned by the caller.
func (s *SuperPeer) Close() {
	s.closed.Do(func() { close(s.shutdown) })
	s.bg.Wait()
}

// Host exposes the underlying pipe host.
func (s *SuperPeer) Host() *jxtaserve.Host { return s.host }

// Ring exposes the membership this super places keys on.
func (s *SuperPeer) Ring() *Ring { return s.opts.Ring }

// Subscriptions reports the registered subscription count.
func (s *SuperPeer) Subscriptions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.subs)
}

// Entries reports (live adverts, tombstones) held by this super.
func (s *SuperPeer) Entries() (live, tombstones int) { return s.store.counts() }

func (s *SuperPeer) goBG(f func()) {
	s.bg.Add(1)
	go func() {
		defer s.bg.Done()
		f()
	}()
}

func (s *SuperPeer) loop(interval time.Duration, tick func()) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.shutdown:
			return
		case <-t.C:
			tick()
		}
	}
}

func (s *SuperPeer) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// updateStoreGauges refreshes the live/tombstone gauges after a write.
func (s *SuperPeer) updateStoreGauges() {
	live, tombs := s.store.counts()
	s.metrics.storeLive.Set(float64(live))
	s.metrics.storeTombs.Set(float64(tombs))
}

// --- write path --------------------------------------------------------------

func (s *SuperPeer) handlePublish(req *jxtaserve.Message) (*jxtaserve.Message, error) {
	var ad advert.Advertisement
	if err := ad.UnmarshalText(req.Payload); err != nil {
		return nil, err
	}
	version, err := strconv.ParseUint(req.Header("version"), 10, 64)
	if err != nil {
		return nil, fmt.Errorf("overlay: bad version %q", req.Header("version"))
	}
	e := Entry{Ad: &ad, ID: ad.ID, Version: version}
	accepted, current := s.store.putVersioned(&e)
	isReplica := req.Header("replica") == "1"
	if isReplica {
		s.metrics.replicas.Inc()
	} else {
		s.metrics.publishes.Inc()
	}
	if accepted {
		traceID, parent := trace.Extract(req.Header)
		if !isReplica {
			// Synchronous replication: the publisher's ack means the
			// advert is on every reachable owner, which is what makes a
			// super-peer death immediately after publish lossless.
			s.replicate(e, traceID, parent)
		}
		s.notifyMatching(e, traceID, parent)
		s.updateStoreGauges()
	}
	reply := &jxtaserve.Message{}
	reply.SetHeader("accepted", boolHeader(accepted))
	// On rejection the publisher learns the version it must outbid
	// (e.g. the tombstone an expiry sweep minted behind its back).
	reply.SetHeader("version", strconv.FormatUint(current, 10))
	return reply, nil
}

func (s *SuperPeer) handleRetract(req *jxtaserve.Message) (*jxtaserve.Message, error) {
	id := req.Header("id")
	version, err := strconv.ParseUint(req.Header("version"), 10, 64)
	if err != nil || id == "" {
		return nil, fmt.Errorf("overlay: bad retraction (id %q, version %q)", id, req.Header("version"))
	}
	// Keep the prior advert body on the tombstone when we have it, so
	// topic-based replication still knows the placement key.
	prev, _ := s.store.get(id)
	e := Entry{ID: id, Ad: prev.Ad, Version: version, Tombstone: true}
	accepted := s.store.put(e)
	if accepted {
		s.metrics.retractions.Inc()
		traceID, parent := trace.Extract(req.Header)
		if req.Header("replica") != "1" {
			s.replicate(e, traceID, parent)
		}
		s.notifyMatching(e, traceID, parent)
		s.updateStoreGauges()
	}
	reply := &jxtaserve.Message{}
	reply.SetHeader("accepted", boolHeader(accepted))
	return reply, nil
}

// replicate pushes an accepted write to the other owners of its key,
// sending the entry's stored bytes (nil for a retraction) to each: the
// payload is shared by every send and must not be written into. Errors
// are logged, not returned: a dead replica is repaired later by
// anti-entropy, and the write is already durable here.
func (s *SuperPeer) replicate(e Entry, traceID, parent string) {
	key := placementKey(e)
	for _, owner := range s.opts.Ring.Owners(key, s.opts.Replication) {
		if owner == s.host.Addr() {
			continue
		}
		span := s.tracer.Start(traceID, parent, "overlay.replicate", s.host.PeerID())
		span.SetAttr("to", owner)
		span.SetAttr("advert", e.ID)
		method, headers := replicaRequest(e, span)
		_, err := s.host.Request(owner, method, e.xml, headers)
		span.Fail(err)
		span.End()
		if err != nil {
			s.logf("overlay: %s replicate %s to %s: %v", s.host.PeerID(), e.ID, owner, err)
		}
	}
}

// replicaRequest builds the request that places an entry on another
// owner directly: a publish of its stored bytes, or a retraction naming
// its ID for a tombstone, at the entry's version, marked replica=1 so
// the receiver does not fan it out again, in span's trace.
func replicaRequest(e Entry, span *trace.Active) (method string, headers map[string]string) {
	method = methodPublish
	headers = map[string]string{
		"version": strconv.FormatUint(e.Version, 10),
		"replica": "1",
	}
	if e.Tombstone {
		method = methodRetract
		headers["id"] = e.ID
	}
	trace.Inject(span, func(k, v string) { headers[k] = v })
	return method, headers
}

// placementKey returns the ring key for an entry: its topic when the
// advert body is known, its ID otherwise (a pure tombstone arriving
// before any body — it will still land on the ID's owners, and
// anti-entropy reconciles the rest).
func placementKey(e Entry) string {
	if e.Ad != nil {
		return TopicKey(string(e.Ad.Kind), e.Ad.Name)
	}
	return e.ID
}

// --- read path ---------------------------------------------------------------

func (s *SuperPeer) handleQuery(req *jxtaserve.Message) (*jxtaserve.Message, error) {
	s.metrics.queries.Inc()
	limit, _ := strconv.Atoi(req.Header("limit"))
	limit = max(limit, 0)
	if payload, ok := s.store.reply(req.Payload, limit); ok {
		s.metrics.replyHits.Inc()
		return &jxtaserve.Message{Payload: payload}, nil
	}
	var q advert.Query
	if err := q.UnmarshalText(req.Payload); err != nil {
		return nil, err
	}
	// The reply is the matches' stored bytes in advert's list framing:
	// no advert is cloned or encoded per query, and a repeat of the
	// query is answered with these very bytes until a write or an
	// expiry changes the answer.
	matches, gen := s.store.findAt(q, limit)
	payload := advert.EncodeRawList(len(matches), func(i int) []byte { return matches[i].xml })
	s.store.keepReply(req.Payload, limit, gen, matches, payload)
	return &jxtaserve.Message{Payload: payload}, nil
}

// --- pub/sub -----------------------------------------------------------------

func (s *SuperPeer) handleSubscribe(req *jxtaserve.Message) (*jxtaserve.Message, error) {
	var q advert.Query
	if err := q.UnmarshalText(req.Payload); err != nil {
		return nil, err
	}
	subID, addr := req.Header("sub"), req.Header("addr")
	if subID == "" || addr == "" {
		return nil, fmt.Errorf("overlay: subscribe missing sub/addr")
	}
	sub := &subscription{key: addr + "/" + subID, subID: subID, addr: addr, query: q}
	s.mu.Lock()
	s.subs[sub.key] = sub
	s.metrics.subscriptions.Set(float64(len(s.subs)))
	s.mu.Unlock()
	// Seed the subscriber with the current matches through the same
	// push path new adverts take: one delivery mechanism, one dedup.
	traceID, parent := trace.Extract(req.Header)
	for _, e := range s.store.find(q, 0) {
		s.pushAsync(sub, e, traceID, parent)
	}
	return &jxtaserve.Message{}, nil
}

func (s *SuperPeer) handleUnsubscribe(req *jxtaserve.Message) (*jxtaserve.Message, error) {
	key := req.Header("addr") + "/" + req.Header("sub")
	s.mu.Lock()
	delete(s.subs, key)
	s.metrics.subscriptions.Set(float64(len(s.subs)))
	s.mu.Unlock()
	return &jxtaserve.Message{}, nil
}

// notifyMatching pushes an accepted write to every subscription it
// matches. Retractions match against the tombstoned advert body when
// known, else against every subscription (the subscriber's own dedup
// drops retractions for adverts it never saw).
func (s *SuperPeer) notifyMatching(e Entry, traceID, parent string) {
	s.mu.Lock()
	targets := make([]*subscription, 0, len(s.subs))
	for _, sub := range s.subs {
		if e.Ad != nil && !sub.query.Matches(e.Ad) {
			continue
		}
		targets = append(targets, sub)
	}
	s.mu.Unlock()
	for _, sub := range targets {
		s.pushAsync(sub, e, traceID, parent)
	}
}

// pushAsync delivers one entry to one subscriber without blocking the
// write path. The goroutine is lifecycle-owned: Close reaps it. The
// payload is the entry's stored bytes, shared with every other push and
// reply of the same entry, so no send path may write into it.
func (s *SuperPeer) pushAsync(sub *subscription, e Entry, traceID, parent string) {
	select {
	case <-s.shutdown:
		return
	default:
	}
	s.goBG(func() {
		span := s.tracer.Start(traceID, parent, "overlay.notify", s.host.PeerID())
		span.SetAttr("to", sub.addr)
		span.SetAttr("advert", e.ID)
		headers := map[string]string{
			"sub":     sub.subID,
			"id":      e.ID,
			"version": strconv.FormatUint(e.Version, 10),
			"event":   eventUpdate,
		}
		if e.Tombstone {
			headers["event"] = eventRetract
		}
		trace.Inject(span, func(k, v string) { headers[k] = v })
		start := time.Now()
		_, err := s.host.Request(sub.addr, methodNotify, e.xml, headers)
		s.metrics.notifies.Inc()
		s.metrics.pushLatency.Observe(time.Since(start).Seconds())
		span.Fail(err)
		span.End()
		if err != nil {
			// A vanished subscriber is normal churn: drop the
			// subscription so we stop pushing into the void.
			s.mu.Lock()
			delete(s.subs, sub.key)
			s.metrics.subscriptions.Set(float64(len(s.subs)))
			s.mu.Unlock()
		}
	})
}

// --- expiry ------------------------------------------------------------------

// SweepOnce tombstones every expired advert and pushes retractions to
// matching subscribers, returning how many adverts expired. Each
// replica sweeps its own copy — expiry is wall-clock, so the owners
// converge without extra replication traffic.
func (s *SuperPeer) SweepOnce() int {
	swept := s.store.sweepExpired()
	for _, e := range swept {
		s.metrics.retractions.Inc()
		s.notifyMatching(e, "", "")
	}
	if len(swept) > 0 {
		s.updateStoreGauges()
	}
	return len(swept)
}

// --- anti-entropy ------------------------------------------------------------

// SyncOnce runs one anti-entropy round against the next ring member in
// round-robin order: exchange per-shard digests, pull the shards that
// differ, and merge whatever is newer. It returns the number of entries
// accepted from the peer.
func (s *SuperPeer) SyncOnce() (pulled int, err error) {
	peers := s.opts.Ring.Nodes()
	self := s.host.Addr()
	candidates := peers[:0:0]
	for _, p := range peers {
		if p != self {
			candidates = append(candidates, p)
		}
	}
	if len(candidates) == 0 {
		return 0, nil
	}
	s.mu.Lock()
	peer := candidates[s.syncIdx%len(candidates)]
	s.syncIdx++
	s.mu.Unlock()
	return s.SyncWith(peer)
}

// SyncWith runs one digest-and-pull round against a specific peer.
func (s *SuperPeer) SyncWith(peer string) (pulled int, err error) {
	s.metrics.syncRounds.Inc()
	s.metrics.ringSize.Set(float64(s.opts.Ring.Len()))
	mine := s.store.digest()
	reply, err := s.host.Request(peer, methodSyncDigest, encodeDigests(mine), nil)
	if err != nil {
		return 0, err
	}
	theirs, err := decodeDigests(reply.Payload)
	if err != nil {
		return 0, err
	}
	if len(theirs) != len(mine) {
		return 0, fmt.Errorf("overlay: digest shape mismatch (%d vs %d shards)", len(theirs), len(mine))
	}
	var diff []string
	for i := range mine {
		if mine[i] != theirs[i] {
			diff = append(diff, strconv.Itoa(i))
		}
	}
	if len(diff) == 0 {
		return 0, nil
	}
	pullReply, err := s.host.Request(peer, methodSyncPull, nil,
		map[string]string{"shards": strings.Join(diff, ",")})
	if err != nil {
		return 0, err
	}
	entries, err := decodeEntries(pullReply.Payload)
	if err != nil {
		return 0, err
	}
	for i := range entries {
		e := &entries[i]
		if accepted, _ := s.store.putVersioned(e); accepted {
			pulled++
			// A repaired entry is news to this super's subscribers too:
			// staleness after a partition heals is bounded by the sync
			// interval, for pull and push consumers alike.
			s.notifyMatching(*e, "", "")
		}
	}
	if pulled > 0 {
		s.metrics.syncPulled.Add(int64(pulled))
		s.updateStoreGauges()
	}
	return pulled, nil
}

func (s *SuperPeer) handleSyncDigest(req *jxtaserve.Message) (*jxtaserve.Message, error) {
	return &jxtaserve.Message{Payload: encodeDigests(s.store.digest())}, nil
}

func (s *SuperPeer) handleSyncPull(req *jxtaserve.Message) (*jxtaserve.Message, error) {
	want, err := parseShardList(req.Header("shards"))
	if err != nil {
		return nil, err
	}
	return &jxtaserve.Message{Payload: encodeEntries(s.store.shardEntries(want))}, nil
}

func boolHeader(b bool) string {
	if b {
		return "1"
	}
	return "0"
}
