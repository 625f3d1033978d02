package overlay

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"consumergrid/internal/advert"
	"consumergrid/internal/health"
	"consumergrid/internal/jxtaserve"
	"consumergrid/internal/metrics"
	"consumergrid/internal/trace"
)

// Event is one pushed subscription update: a new or changed advert, or
// its retraction (expiry, explicit withdrawal).
type Event struct {
	SubID     string
	ID        string // advert ID
	Version   uint64
	Retracted bool
	// Ad is nil on retraction. It is the client's decoded advert for
	// the pushed bytes, the same one its queries return for them:
	// shared and read-only.
	Ad *advert.Advertisement
}

// ClientOptions configures an overlay client.
type ClientOptions struct {
	// Ring is the super-peer membership to publish into and query.
	// Required; shared with (or mirroring) the supers' ring.
	Ring *Ring
	// Replication is the factor R the supers run with (default
	// DefaultReplication). The client subscribes to every owner of its
	// topic so a single super death never silences its subscriptions.
	Replication int
	// Health orders owner candidates (healthy supers tried first) and
	// receives the client's RPC outcomes. Optional; nil builds a
	// private tracker.
	Health *health.Tracker
	// Registry receives overlay_client_* series (default metrics.Default()).
	Registry *metrics.Registry
	// Tracer records publish spans (default trace.Default()).
	Tracer *trace.Recorder
	// Logf receives diagnostics; may be nil.
	Logf func(format string, args ...any)
}

// eventBuffer is each subscription channel's depth. A full channel
// drops the oldest pending event, never blocks the push path.
const eventBuffer = 64

// clientSub is one live subscription with its per-advert version dedup
// table: the same write reaches the client once per owner pushing it,
// and must surface exactly once.
type clientSub struct {
	id       string
	query    advert.Query
	ch       chan Event
	seen     map[string]uint64 // advert ID -> highest delivered version
	decoding map[string]uint64 // advert ID -> highest version a push is decoding
}

// Client is a peer's handle on the discovery overlay: it publishes the
// peer's own adverts (with monotonic versions), queries the ring, and
// holds push subscriptions.
type Client struct {
	host    *jxtaserve.Host
	opts    ClientOptions
	health  *health.Tracker
	metrics *clientMetrics
	tracer  *trace.Recorder
	memo    *adMemo // shared by query replies and pushes

	mu        sync.Mutex
	versions  map[string]uint64 // per published advert ID
	published map[string]*advert.Advertisement
	subs      map[string]*clientSub
	closed    bool
}

// NewClient attaches an overlay client to a host and registers its
// notification handler immediately.
func NewClient(host *jxtaserve.Host, opts ClientOptions) (*Client, error) {
	if opts.Ring == nil {
		return nil, fmt.Errorf("overlay: ClientOptions.Ring required")
	}
	if opts.Replication <= 0 {
		opts.Replication = DefaultReplication
	}
	if opts.Health == nil {
		opts.Health = health.New(health.Options{Owner: host.PeerID()})
	}
	if opts.Tracer == nil {
		opts.Tracer = trace.Default()
	}
	c := &Client{
		host:      host,
		opts:      opts,
		health:    opts.Health,
		metrics:   newClientMetrics(opts.Registry, host.PeerID()),
		tracer:    opts.Tracer,
		memo:      newAdMemo(),
		versions:  make(map[string]uint64),
		published: make(map[string]*advert.Advertisement),
		subs:      make(map[string]*clientSub),
	}
	host.Handle(methodNotify, c.handleNotify)
	return c, nil
}

// Close drops every subscription, telling the supers best-effort so
// they stop pushing, and closes the event channels.
func (c *Client) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	subs := make([]*clientSub, 0, len(c.subs))
	for _, s := range c.subs {
		subs = append(subs, s)
	}
	c.subs = make(map[string]*clientSub)
	c.mu.Unlock()
	for _, s := range subs {
		c.tellUnsubscribe(s)
		close(s.ch)
	}
	c.metrics.subscriptions.Set(0)
}

// Health exposes the tracker ordering super-peer candidates.
func (c *Client) Health() *health.Tracker { return c.health }

// Ring exposes the client's view of the super-peer ring.
func (c *Client) Ring() *Ring { return c.opts.Ring }

// ClientStats snapshots a client's overlay-facing state for status pages.
type ClientStats struct {
	// Supers lists the ring members this client places adverts across.
	Supers []string
	// Replication is the configured replication factor R.
	Replication int
	// Published counts adverts this client currently maintains.
	Published int
	// Subscriptions counts the client's live push subscriptions.
	Subscriptions int
}

// Stats snapshots the client for observability surfaces.
func (c *Client) Stats() ClientStats {
	c.mu.Lock()
	published, subs := len(c.published), len(c.subs)
	c.mu.Unlock()
	return ClientStats{
		Supers:        c.opts.Ring.Nodes(),
		Replication:   c.opts.Replication,
		Published:     published,
		Subscriptions: subs,
	}
}

// targets returns the supers responsible for a ring key, healthiest
// first: the key's O(R) owners, or every super when the key is "" (a
// query that may match across topics — still O(supers), never
// O(peers)).
func (c *Client) targets(key string) []string {
	var owners []string
	if key != "" {
		owners = c.opts.Ring.Owners(key, c.opts.Replication)
	} else {
		owners = c.opts.Ring.Nodes()
	}
	usable, gated := c.health.Rank(owners)
	return append(usable, gated...)
}

// queryKey is the topic a fully-specified query (kind + exact name) is
// confined to, or "" for a wildcard or open query.
func queryKey(q advert.Query) string {
	if q.Kind == "" || q.Name == "" || strings.HasSuffix(q.Name, "*") {
		return ""
	}
	return TopicKey(string(q.Kind), q.Name)
}

// Publish registers (or renews) an advert on the overlay. Each publish
// of the same advert ID gets the next version, so renewals win
// last-writer-wins everywhere and replicas dedup cleanly. The write is
// sent to one owner, which replicates synchronously to the rest before
// acking — O(R) messages total.
func (c *Client) Publish(ad *advert.Advertisement) error {
	c.mu.Lock()
	c.versions[ad.ID]++
	version := c.versions[ad.ID]
	c.published[ad.ID] = ad.Clone()
	c.mu.Unlock()
	c.metrics.publishes.Inc()

	payload, err := ad.MarshalText()
	if err != nil {
		return err
	}
	span := c.tracer.Start("", "", "overlay.publish", c.host.PeerID())
	span.SetAttr("advert", ad.ID)
	defer span.End()
	headers := map[string]string{"version": strconv.FormatUint(version, 10)}
	trace.Inject(span, func(k, v string) { headers[k] = v })
	key := TopicKey(string(ad.Kind), ad.Name)
	reply, err := c.firstAck(c.targets(key), methodPublish, payload, headers)
	if err == nil && reply.Header("accepted") == "0" {
		// The ring holds a higher version than our counter — typically
		// the tombstone an expiry sweep minted for our previous copy.
		// Outbid it once and renew.
		if cur, perr := strconv.ParseUint(reply.Header("version"), 10, 64); perr == nil && cur >= version {
			c.mu.Lock()
			if cur >= c.versions[ad.ID] {
				c.versions[ad.ID] = cur + 1
			}
			headers["version"] = strconv.FormatUint(c.versions[ad.ID], 10)
			c.mu.Unlock()
			_, err = c.firstAck(c.targets(key), methodPublish, payload, headers)
		}
	}
	span.Fail(err)
	return err
}

// Retract withdraws a previously published advert: a tombstone one
// version past the last publish, replicated like any write.
func (c *Client) Retract(id string) error {
	c.mu.Lock()
	ad := c.published[id]
	c.versions[id]++
	version := c.versions[id]
	delete(c.published, id)
	c.mu.Unlock()
	if ad == nil {
		return fmt.Errorf("overlay: advert %s was not published here", id)
	}
	span := c.tracer.Start("", "", "overlay.retract", c.host.PeerID())
	span.SetAttr("advert", id)
	defer span.End()
	headers := map[string]string{
		"id":      id,
		"version": strconv.FormatUint(version, 10),
	}
	trace.Inject(span, func(k, v string) { headers[k] = v })
	_, err := c.firstAck(c.targets(TopicKey(string(ad.Kind), ad.Name)), methodRetract, nil, headers)
	span.Fail(err)
	return err
}

// ask sends one request to one super, reporting the outcome to the
// health tracker so dead supers sink in the candidate order.
func (c *Client) ask(addr, method string, payload []byte, headers map[string]string) (*jxtaserve.Message, error) {
	start := time.Now()
	reply, err := c.host.Request(addr, method, payload, headers)
	if err != nil {
		c.health.ReportFailure(addr)
		c.logf("overlay: %s %s via %s: %v", c.host.PeerID(), method, addr, err)
		return nil, err
	}
	c.health.ReportSuccess(addr, time.Since(start))
	return reply, nil
}

var errNoSupers = errors.New("overlay: no super-peers on the ring")

// firstAck tries targets in order until one answers the request.
func (c *Client) firstAck(targets []string, method string, payload []byte, headers map[string]string) (*jxtaserve.Message, error) {
	err := errNoSupers
	for _, addr := range targets {
		var reply *jxtaserve.Message
		if reply, err = c.ask(addr, method, payload, headers); err == nil {
			return reply, nil
		}
	}
	return nil, err
}

// askEach sends the request to every target and hands each reply to
// use, when use is not nil; an error from use ends the walk. Otherwise
// it fails only when no target answered, with the last failure.
func (c *Client) askEach(targets []string, method string, payload []byte, headers map[string]string, use func(*jxtaserve.Message) error) error {
	lastErr := errNoSupers
	answered := false
	for _, addr := range targets {
		reply, err := c.ask(addr, method, payload, headers)
		if err != nil {
			lastErr = err
			continue
		}
		answered = true
		if use != nil {
			if err := use(reply); err != nil {
				return err
			}
		}
	}
	if answered {
		return nil
	}
	return lastErr
}

// Query asks the overlay for matching adverts. Topic queries cost one
// RPC to the first live owner; open queries fan out to every super and
// merge, deduplicating by advert ID. Each distinct advert is decoded
// once across replies and pushes, and every query and Event that
// carries it returns that one advert: the caller owns the slice, not
// the adverts, which are shared and read-only (Clone one to change it).
func (c *Client) Query(q advert.Query, limit int) ([]*advert.Advertisement, error) {
	c.metrics.queries.Inc()
	payload, err := q.MarshalText()
	if err != nil {
		return nil, err
	}
	headers := map[string]string{"limit": strconv.Itoa(limit)}
	if key := queryKey(q); key != "" {
		// All owners hold the same replicated topic: the first answer
		// is the answer.
		reply, err := c.firstAck(c.targets(key), methodQuery, payload, headers)
		if err != nil {
			return nil, err
		}
		return c.memo.decodeList(reply.Payload)
	}
	byID := make(map[string]*advert.Advertisement)
	err = c.askEach(c.targets(""), methodQuery, payload, headers, func(reply *jxtaserve.Message) error {
		ads, err := c.memo.decodeList(reply.Payload)
		for _, ad := range ads {
			byID[ad.ID] = ad
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	out := make([]*advert.Advertisement, 0, len(byID))
	for _, ad := range byID {
		out = append(out, ad)
	}
	sortAds(out)
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out, nil
}

// Subscribe registers a persistent query with every super responsible
// for it and returns the channel its push events arrive on. Duplicates
// from the redundant owners are deduplicated by advert version before
// delivery; the channel is closed by Unsubscribe or Close.
func (c *Client) Subscribe(subID string, q advert.Query) (<-chan Event, error) {
	sub := &clientSub{
		id:       subID,
		query:    q,
		ch:       make(chan Event, eventBuffer),
		seen:     make(map[string]uint64),
		decoding: make(map[string]uint64),
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, fmt.Errorf("overlay: client closed")
	}
	if _, dup := c.subs[subID]; dup {
		c.mu.Unlock()
		return nil, fmt.Errorf("overlay: subscription %q already exists", subID)
	}
	c.subs[subID] = sub
	c.metrics.subscriptions.Set(float64(len(c.subs)))
	c.mu.Unlock()

	payload, err := q.MarshalText()
	if err != nil {
		c.dropSub(subID)
		return nil, err
	}
	headers := map[string]string{"sub": subID, "addr": c.host.Addr()}
	if err := c.askEach(c.targets(queryKey(q)), methodSubscribe, payload, headers, nil); err != nil {
		c.dropSub(subID)
		return nil, err
	}
	return sub.ch, nil
}

// Unsubscribe withdraws a subscription and closes its channel.
func (c *Client) Unsubscribe(subID string) {
	sub := c.dropSub(subID)
	if sub == nil {
		return
	}
	c.tellUnsubscribe(sub)
	close(sub.ch)
}

func (c *Client) dropSub(subID string) *clientSub {
	c.mu.Lock()
	defer c.mu.Unlock()
	sub := c.subs[subID]
	delete(c.subs, subID)
	c.metrics.subscriptions.Set(float64(len(c.subs)))
	return sub
}

func (c *Client) tellUnsubscribe(sub *clientSub) {
	headers := map[string]string{"sub": sub.id, "addr": c.host.Addr()}
	c.askEach(c.targets(queryKey(sub.query)), methodUnsub, nil, headers, nil)
}

// handleNotify receives one pushed update from a super-peer.
func (c *Client) handleNotify(req *jxtaserve.Message) (*jxtaserve.Message, error) {
	subID, id := req.Header("sub"), req.Header("id")
	version, err := strconv.ParseUint(req.Header("version"), 10, 64)
	if err != nil || subID == "" || id == "" {
		return nil, fmt.Errorf("overlay: bad notify (sub %q, id %q)", subID, id)
	}
	ev := Event{SubID: subID, ID: id, Version: version, Retracted: req.Header("event") == eventRetract}
	if !ev.Retracted {
		// Drop a copy already delivered, or one whose version another
		// copy is decoding now, before paying for its decode: the R
		// owners push each write at once, and a copy that raced the
		// first past the memo would decode the advert a second time.
		c.mu.Lock()
		sub, stale := c.stale(subID, id, version)
		if !stale {
			if v, ok := sub.decoding[id]; ok && version <= v {
				c.metrics.deduped.Inc()
				stale = true
			} else {
				sub.decoding[id] = version
			}
		}
		c.mu.Unlock()
		if stale {
			return &jxtaserve.Message{}, nil
		}
		ad, err := c.memo.decode(req.Payload)
		c.mu.Lock()
		if sub.decoding[id] == version {
			delete(sub.decoding, id)
		}
		c.mu.Unlock()
		if err != nil {
			return nil, err
		}
		ev.Ad = ad
	}
	c.metrics.events.Inc()
	c.mu.Lock()
	// Check again: a concurrent copy may have landed during the decode.
	sub, stale := c.stale(subID, id, version)
	if stale {
		c.mu.Unlock()
		return &jxtaserve.Message{}, nil
	}
	// A retraction for an advert this subscriber never saw is also
	// suppressed — there is nothing to retract downstream.
	if ev.Retracted {
		if _, everSeen := sub.seen[id]; !everSeen {
			sub.seen[id] = version
			c.mu.Unlock()
			c.metrics.deduped.Inc()
			return &jxtaserve.Message{}, nil
		}
	}
	sub.seen[id] = version
	// Deliver without blocking the super's push goroutine: a stalled
	// consumer sheds its oldest pending event instead of wedging the
	// overlay.
	select {
	case sub.ch <- ev:
	default:
		select {
		case <-sub.ch:
		default:
		}
		select {
		case sub.ch <- ev:
		default:
		}
	}
	c.mu.Unlock()
	return &jxtaserve.Message{}, nil
}

// stale reports whether a push is no news, returning its subscription
// when it is news. It is no news when the subscription is gone (a super
// that has not processed the unsubscribe yet; acking quietly stops the
// retry) or has already delivered this version: R owners push every
// write, and the subscriber must see it once. Callers hold c.mu.
func (c *Client) stale(subID, id string, version uint64) (*clientSub, bool) {
	sub := c.subs[subID]
	if sub == nil {
		return nil, true
	}
	if last, ok := sub.seen[id]; ok && version <= last {
		c.metrics.deduped.Inc()
		return nil, true
	}
	return sub, false
}

func (c *Client) logf(format string, args ...any) {
	if c.opts.Logf != nil {
		c.opts.Logf(format, args...)
	}
}

func sortAds(ads []*advert.Advertisement) {
	slices.SortFunc(ads, func(a, b *advert.Advertisement) int { return strings.Compare(a.ID, b.ID) })
}
