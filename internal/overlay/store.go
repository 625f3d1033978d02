package overlay

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"consumergrid/internal/advert"
	"consumergrid/internal/frame"
)

// Entry is one replicated advert record: the advertisement plus the
// publisher-assigned version and the tombstone flag. Versions order
// concurrent writes (last-writer-wins per advert ID); tombstones make
// deletion replicable — a retraction must win against a stale copy of
// the advert arriving later via anti-entropy, which a plain delete
// cannot do.
//
// A live entry the store accepted also holds its advert's canonical
// XML, encoded once on acceptance and sent as-is by every outgoing copy:
// query replies, notify pushes, replication, handoff, sync pulls and
// checkpoints. Those bytes and the Ad they encode are shared across
// concurrent sends and, on in-process transports, with the receiving
// handler, so nothing may write into either.
type Entry struct {
	Ad        *advert.Advertisement
	ID        string // == Ad.ID when Ad != nil; tombstones carry only the ID
	Version   uint64
	Tombstone bool
	xml       []byte // canonical MarshalText of Ad; nil on tombstones
}

// digestWord folds the entry's identity, version and tombstone flag
// into the word XORed into its shard's anti-entropy digest.
func (e Entry) digestWord() uint64 {
	h := hash64(e.ID)
	h ^= e.Version * 0x9e3779b97f4a7c15
	if e.Tombstone {
		h = ^h
	}
	return h
}

// store is a super-peer's versioned advert table, plus the encoded
// replies to recent queries. All methods are safe for concurrent use.
type store struct {
	mu      sync.Mutex
	entries map[string]Entry // by advert ID
	now     func() time.Time

	// gen counts the writes that changed entries. A reply encoded from
	// a find at an older generation is never stored, and every write
	// drops every stored reply.
	gen        uint64
	replies    map[replyKey]storedReply
	replyBytes int // total payload bytes in replies
}

// The stored replies are bounded in count and bytes. A super is asked
// a handful of distinct queries (one per discovery filter set in use),
// and a reply costs its adverts' canonical bytes again, about 0.5 KiB a
// donor; 1 MiB holds a 2,000-donor reply. A longer reply is never
// stored: it would be a second copy of most of the store, which the next
// write throws away.
const (
	maxReplies    = 64
	maxReplyBytes = 1 << 20
)

// replyKey names a stored reply: the query's raw payload and its
// limit (0 for none).
type replyKey struct {
	limit int
	query string
}

// storedReply is an encoded query reply and the time it stops being
// the answer: the earliest expiry among its matches (zero for never).
type storedReply struct {
	payload  []byte
	deadline time.Time
}

func newStore(now func() time.Time) *store {
	if now == nil {
		now = time.Now
	}
	return &store{entries: make(map[string]Entry), now: now, replies: make(map[replyKey]storedReply)}
}

// changed records a write to entries: it bumps the generation and drops
// every stored reply. Callers hold s.mu.
func (s *store) changed() {
	s.gen++
	clear(s.replies)
	s.replyBytes = 0
}

// put merges an update entry, reporting whether it was accepted (its
// version is newer than what the store holds). Equal versions are
// idempotent no-ops, which is what makes replication and anti-entropy
// safe to repeat.
func (s *store) put(e Entry) bool {
	accepted, _ := s.putVersioned(&e)
	return accepted
}

// putVersioned is put plus the version now stored for the ID, so a
// rejecting super can tell the publisher what it must outbid. A
// publisher's renewal can otherwise collide forever with the tombstone
// an expiry sweep minted at version+1 behind its back. An accepted live
// entry leaves with its canonical bytes set in *e, so the caller's
// pushes and replicas send exactly what the store will serve. The bytes
// come from re-encoding the decoded advert, never from the publisher's
// payload, so a non-canonical or hostile encoding is never echoed.
func (s *store) putVersioned(e *Entry) (accepted bool, current uint64) {
	if e.ID == "" && e.Ad != nil {
		e.ID = e.Ad.ID
	}
	if e.ID == "" {
		return false, 0
	}
	if !e.Tombstone && e.Ad != nil {
		// Encode only what can win: a stale replica or a repeated sync
		// entry costs a map lookup, not an XML encode.
		if prev, ok := s.get(e.ID); ok && prev.Version >= e.Version {
			return false, prev.Version
		}
		b, err := e.Ad.MarshalText()
		if err != nil {
			return false, 0
		}
		e.xml = b
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.entries[e.ID]; ok && prev.Version >= e.Version {
		return false, prev.Version
	}
	s.entries[e.ID] = *e
	s.changed()
	return true, e.Version
}

// get returns the entry for id.
func (s *store) get(id string) (Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[id]
	return e, ok
}

// find returns up to limit live, unexpired matching entries, sorted by
// ID. The entries share the store's adverts and bytes: read-only.
func (s *store) find(q advert.Query, limit int) []Entry {
	out, _ := s.findAt(q, limit)
	return out
}

// findAt is find plus the generation it read the entries at.
func (s *store) findAt(q advert.Query, limit int) (out []Entry, gen uint64) {
	now := s.now()
	s.mu.Lock()
	for _, e := range s.entries {
		if e.Tombstone || e.Ad == nil || e.Ad.Expired(now) || !q.Matches(e.Ad) {
			continue
		}
		out = append(out, e)
	}
	gen = s.gen
	s.mu.Unlock()
	sortEntries(out)
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out, gen
}

// reply returns the stored reply to the raw query payload at limit
// while it is still the answer: no write since it was stored, and none
// of its matches expired. The bytes are shared, like an entry's:
// read-only.
func (s *store) reply(query []byte, limit int) ([]byte, bool) {
	now := s.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.replies[replyKey{limit, string(query)}] // no copy of query
	if !ok {
		return nil, false
	}
	if !r.deadline.IsZero() && now.After(r.deadline) {
		delete(s.replies, replyKey{limit, string(query)})
		s.replyBytes -= len(r.payload)
		return nil, false
	}
	return r.payload, true
}

// keepReply stores payload as the reply to query at limit, encoded from
// matches that findAt read at generation gen. It is dropped if a write
// has come since, or if it is over the byte bound; to make room it
// evicts other replies, whichever the map yields first.
func (s *store) keepReply(query []byte, limit int, gen uint64, matches []Entry, payload []byte) {
	if len(payload) > maxReplyBytes {
		return
	}
	var deadline time.Time
	for _, e := range matches {
		if exp := e.Ad.Expires; !exp.IsZero() && (deadline.IsZero() || exp.Before(deadline)) {
			deadline = exp
		}
	}
	k := replyKey{limit, string(query)}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, racing := s.replies[k]; racing || s.gen != gen {
		return // a concurrent miss stored the same reply, or it is stale
	}
	for ek, r := range s.replies {
		if len(s.replies) < maxReplies && s.replyBytes+len(payload) <= maxReplyBytes {
			break
		}
		delete(s.replies, ek)
		s.replyBytes -= len(r.payload)
	}
	s.replies[k] = storedReply{payload: payload, deadline: deadline}
	s.replyBytes += len(payload)
}

func sortEntries(es []Entry) {
	slices.SortFunc(es, func(a, b Entry) int { return strings.Compare(a.ID, b.ID) })
}

// sweepExpired tombstones every live entry past its expiry, returning
// the new tombstones so the caller can push retractions. The tombstone
// takes version+1 so it outranks the expired advert everywhere.
func (s *store) sweepExpired() []Entry {
	now := s.now()
	s.mu.Lock()
	var swept []Entry
	for id, e := range s.entries {
		if e.Tombstone || e.Ad == nil || !e.Ad.Expired(now) {
			continue
		}
		t := Entry{ID: id, Ad: e.Ad, Version: e.Version + 1, Tombstone: true}
		s.entries[id] = t
		swept = append(swept, t)
	}
	if len(swept) > 0 {
		s.changed()
	}
	s.mu.Unlock()
	sortEntries(swept)
	return swept
}

// counts reports (live adverts, tombstones).
func (s *store) counts() (live, tombs int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.entries {
		if e.Tombstone {
			tombs++
		} else {
			live++
		}
	}
	return live, tombs
}

// ShardDigest summarises one anti-entropy shard: how many entries it
// holds and the XOR-fold of their (id, version, tombstone) words. Two
// replicas whose digests match hold identical shard contents with
// overwhelming probability; a mismatch names exactly which shard to
// pull.
type ShardDigest struct {
	Count uint64
	Hash  uint64
}

// digest summarises the store into DefaultShards buckets.
func (s *store) digest() []ShardDigest {
	out := make([]ShardDigest, DefaultShards)
	s.mu.Lock()
	for id, e := range s.entries {
		i := ShardOf(id)
		out[i].Count++
		out[i].Hash ^= e.digestWord()
	}
	s.mu.Unlock()
	return out
}

// all snapshots every entry, live and tombstone, sorted by ID. Like
// find, it shares adverts and bytes.
func (s *store) all() []Entry {
	s.mu.Lock()
	out := make([]Entry, 0, len(s.entries))
	for _, e := range s.entries {
		out = append(out, e)
	}
	s.mu.Unlock()
	sortEntries(out)
	return out
}

// shardEntries snapshots every entry (live and tombstone) in the given
// shards, sorted by ID. Like find, it shares adverts and bytes.
func (s *store) shardEntries(want map[int]bool) []Entry {
	s.mu.Lock()
	var out []Entry
	for id, e := range s.entries {
		if want[ShardOf(id)] {
			out = append(out, e)
		}
	}
	s.mu.Unlock()
	sortEntries(out)
	return out
}

// --- wire codecs -------------------------------------------------------------

// encodeEntries frames store entries for sync-pull replies and
// checkpoints: per entry the version, the tombstone flag, the ID and
// (for live entries) the stored advert XML, all length-prefixed.
func encodeEntries(entries []Entry) []byte {
	out := frame.AppendUvarint(nil, uint64(len(entries)))
	for _, e := range entries {
		out = frame.AppendUvarint(out, e.Version)
		flag := uint64(0)
		if e.Tombstone {
			flag = 1
		}
		out = frame.AppendUvarint(out, flag)
		out = frame.AppendString(out, e.ID)
		out = frame.AppendBytes(out, e.xml)
	}
	return out
}

// decodeEntries parses an encodeEntries payload.
func decodeEntries(b []byte) ([]Entry, error) {
	r := frame.NewReader(b)
	// An entry is at least a version, a flag and two lengths.
	out := make([]Entry, r.Count(4))
	for i := range out {
		e := &out[i]
		e.Version = r.Uvarint()
		e.Tombstone = r.Uvarint() == 1
		e.ID = r.String(r.Len())
		if adXML := r.Bytes(r.Len()); len(adXML) > 0 {
			e.Ad = new(advert.Advertisement)
			if err := e.Ad.UnmarshalText(adXML); err != nil {
				return nil, err
			}
		}
		if r.Err() != nil {
			break
		}
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("overlay: entries: %w", err)
	}
	return out, nil
}

// encodeDigests frames a digest vector for sync-digest exchanges.
func encodeDigests(ds []ShardDigest) []byte {
	out := frame.AppendUvarint(nil, uint64(len(ds)))
	for _, d := range ds {
		out = frame.AppendUvarint(out, d.Count)
		out = frame.AppendUvarint(out, d.Hash)
	}
	return out
}

// decodeDigests parses an encodeDigests payload.
func decodeDigests(b []byte) ([]ShardDigest, error) {
	r := frame.NewReader(b)
	out := make([]ShardDigest, r.Count(2))
	for i := range out {
		out[i] = ShardDigest{Count: r.Uvarint(), Hash: r.Uvarint()}
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("overlay: digests: %w", err)
	}
	return out, nil
}

// parseShardList decodes the comma-separated shard header of a sync
// pull ("3,17,22").
func parseShardList(s string) (map[int]bool, error) {
	want := make(map[int]bool)
	if s == "" {
		return want, nil
	}
	for _, part := range strings.Split(s, ",") {
		var i int
		if _, err := fmt.Sscanf(part, "%d", &i); err != nil {
			return nil, fmt.Errorf("overlay: bad shard %q", part)
		}
		if i < 0 || i >= DefaultShards {
			return nil, fmt.Errorf("overlay: shard %d out of range", i)
		}
		want[i] = true
	}
	return want, nil
}
