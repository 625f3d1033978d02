// The service side of the content-addressed data tier, which every
// daemon runs: a farm never streams its payloads per attempt, either
// way. The controller ships each chunk's manifest (ordered digest list
// plus fetch hints) inside the triana.run request itself, and the
// donor's job materialises it through the chunkstore fallback ladder —
// local cache, super-peer ring replica, a donor that resolved the
// digest earlier, and finally the controller itself. A datum no longer
// than chunkstore.MaxInline rides the manifest by value instead: it is
// never digested, pinned, put to the ring or fetched. The request's
// inputs header says the manifest is there; the donor opens no pipe and
// refuses a manifest for any body but a one-input, one-output one. On
// the way back the job's outputs ride its triana.wait reply as a result
// list (quorum.go) by the same rule: a short output by value, any other
// as its content address, the bytes held in the donor's chunk store
// until the controller is done with them (farm.go).
package service

import (
	"context"
	"strconv"
	"sync"
	"time"

	"consumergrid/internal/chunkstore"
	"consumergrid/internal/frame"
	"consumergrid/internal/trace"
	"consumergrid/internal/types"
)

// hdrInputs in a triana.run request (value inputsManifest) says the run
// payload carries the chunk's manifest after the state. Such a request
// is a farm part: the donor opens no pipe, returns no input-pipe advert,
// and answers the job's wait with its result list.
const (
	hdrInputs      = "inputs"
	inputsManifest = "manifest"
)

// maxPeerHints bounds the donor hints embedded per manifest item.
const maxPeerHints = 3

// chunkFetchTimeout bounds one chunk fetch from one source; the ladder
// moves to the next rung on expiry.
const chunkFetchTimeout = 2 * time.Second

// DataTierOptions tunes the daemon's content-addressed chunk tier.
type DataTierOptions struct {
	// Deprecated: ignored. Every daemon runs the tier.
	Enable bool
	// CacheBytes bounds the per-peer LRU chunk cache (default 64 MiB).
	CacheBytes int64
}

// setupDataTier creates the peer's chunk store and installs the wire
// hook through which the store answers chunk.fetch conversations.
func (s *Service) setupDataTier(o DataTierOptions) {
	s.chunks = chunkstore.New(chunkstore.Options{
		MaxBytes: o.CacheBytes,
		Owner:    s.opts.PeerID,
		Logf:     s.opts.Logf,
	})
	s.host.SetChunkSource(s.serveChunk)
}

// ChunkStore exposes the daemon's chunk cache.
func (s *Service) ChunkStore() *chunkstore.Store { return s.chunks }

// serveChunk answers a chunk.fetch conversation from the local store.
// Bytes served from pinned entries are a controller feeding its own
// live farm (the controller-direct rung), so they count as farm egress;
// serves from the LRU are donor-to-donor traffic the controller never
// paid for.
func (s *Service) serveChunk(digest string) ([]byte, bool) {
	data, pinned, ok := s.chunks.Lookup(digest)
	if !ok {
		return nil, false
	}
	if pinned {
		s.resStats.FarmEgressBytes.Add(int64(len(data)))
	}
	return data, true
}

// resolveManifest is the donor-side fetch ladder: decode the manifest
// and materialise every item, in order — a by-value item as the bytes
// it carries, a digest through the chunk store. It stops between items
// once ctx is done. Its chunk.resolve span is a child of parent.
func (s *Service) resolveManifest(ctx context.Context, payload []byte, parent *trace.Active) ([][]byte, error) {
	man, err := chunkstore.DecodeManifest(payload)
	if err != nil {
		return nil, err
	}
	span := s.tracer.Start(parent.TraceID(), parent.SpanID(), "chunk.resolve", s.opts.PeerID)
	span.SetAttr("items", strconv.Itoa(len(man.Items)))
	defer span.End()
	fetched := 0
	out := make([][]byte, 0, len(man.Items))
	for _, it := range man.Items {
		if err := ctx.Err(); err != nil {
			span.Fail(err)
			return nil, err
		}
		if it.Digest == "" {
			out = append(out, it.Data)
			continue
		}
		data, class, err := s.chunks.Fetch(it.Digest, man.Sources(it), s.fetchChunkWire)
		if err != nil {
			span.Fail(err)
			s.logf("service: %s manifest digest %.12s: %v", s.opts.PeerID, it.Digest, err)
			return nil, err
		}
		if class != chunkstore.SourceLocal {
			fetched++
		}
		out = append(out, data)
	}
	span.SetAttr("fetched", strconv.Itoa(fetched))
	return out, nil
}

// manifestInput is a hosted job's input when it took its request's
// manifest: every datum resolved and decoded before the engine starts,
// queued on a closed channel. A datum is left unsealed: it aliases none
// of the bytes it was decoded from (the chunk store keeps those), and it
// goes to the body's one ExternalIn endpoint, so the job owns it and a
// unit may compute in place on it. A datum that cannot be resolved or
// decoded fails the job, and the wait reply carries the error.
func (s *Service) manifestInput(ctx context.Context, manifest []byte, parent *trace.Active) (<-chan types.Data, error) {
	payloads, err := s.resolveManifest(ctx, manifest, parent)
	if err != nil {
		return nil, err
	}
	in := make(chan types.Data, len(payloads))
	defer close(in)
	for _, p := range payloads {
		d, err := types.Unmarshal(p)
		if err != nil {
			return nil, err
		}
		in <- d
	}
	return in, nil
}

// resultList collects a farm job's outputs into the result list its
// wait reply ends in. Each output is marshalled once, sized exactly by
// types.Size: one of at most chunkstore.MaxInline bytes is marshalled
// straight into the list, by value; any other into a buffer of its own
// length, listed by content address and held in the donor's chunk
// store, where the controller fetches it if a vote commits it. A hold
// is charged to the store's budget but never evicted; the job's record
// keeps it until the controller cancels the ended job or the record
// leaves the ended FIFO (heldCap). An output that would take the list's
// held bytes past heldCap is listed by value, as is every output of a
// draining donor: it will not be there to serve the fetch. One
// goroutine fills a list.
type resultList struct {
	s         *Service
	n         int
	items     []byte   // non-nil: an empty list is still a list
	held      []string // digests of the outputs listed by address
	heldBytes int
}

func (s *Service) newResultList() *resultList {
	return &resultList{s: s, items: []byte{}}
}

// heldCap bounds the output bytes a donor holds for its controllers:
// half its chunk store's budget, so holds never crowd the cache out.
func (s *Service) heldCap() int { return int(s.chunks.Budget() / 2) }

func (l *resultList) add(d types.Data) error {
	n := types.Size(d)
	if n <= chunkstore.MaxInline || l.s.Draining() || l.heldBytes+n > l.s.heldCap() {
		// The item appendResultItem writes, marshalled in place.
		items, err := types.AppendMarshal(frame.AppendUvarint(append(l.items, itemValue), uint64(n)), d)
		if err != nil {
			return err
		}
		l.items = items
	} else {
		p, err := types.AppendMarshal(make([]byte, 0, n), d)
		if err != nil {
			return err
		}
		a := addressOf(p)
		digest := a.digest()
		l.s.chunks.Hold(digest, p)
		l.held = append(l.held, digest)
		l.heldBytes += n
		l.items = appendResultItem(l.items, itemAddress, a[:])
	}
	l.n++
	return nil
}

// release drops the list's holds: nobody will fetch its outputs.
func (l *resultList) release() {
	for _, digest := range l.held {
		l.s.chunks.Release(digest)
	}
	l.held, l.heldBytes = nil, 0
}

func (s *Service) fetchChunkWire(addr, digest string) ([]byte, error) {
	return s.host.FetchChunk(addr, digest, chunkFetchTimeout)
}

// farmManifests is a controller's per-farm manifest state: every
// chunk's by-value datums and by-reference digests (their payloads
// pinned locally for the controller-direct rung and written to the
// ring) with the ring owners holding each, plus the donors observed to
// have resolved each digest — the peer hints later manifests carry.
type farmManifests struct {
	s      *Service
	origin string
	chunks [][]manifestEntry

	mu    sync.Mutex
	hints map[string][]string // digest -> donor addrs, capped
}

// manifestEntry is one datum of a chunk's manifest: a digest with the
// ring owners that acked its write, or (digest empty) the datum itself.
type manifestEntry struct {
	digest string
	ring   []string // the ring owners that acked the digest's write
	data   []byte   // a by-value datum's canonical bytes
}

// prepareFarmManifests canonically encodes every datum once, up front,
// so a chunk's identity is fixed before the first attempt and
// re-despatches and speculative backups never re-pay the marshal. A
// datum of at most chunkstore.MaxInline bytes becomes a by-value entry:
// the manifest itself carries it to every attempt. Any other is pinned
// in the controller's own store for the controller-direct rung, and
// each unique digest is written to max(1, R−1) ring owners: while the
// farm runs the controller's pin is one of the chunk's R copies.
// Manifests name only the owners that acked as ring rungs. Replication
// bytes are controller egress, paid once per digest, not once per
// attempt, and charged to the farm's tenant as well as to the service.
func (s *Service) prepareFarmManifests(chunks [][]types.Data, tstats *tenantFarmStats) (*farmManifests, error) {
	fm := &farmManifests{
		s:      s,
		origin: s.Addr(),
		chunks: make([][]manifestEntry, len(chunks)),
		hints:  make(map[string][]string),
	}
	copies := 0
	if s.overlay != nil {
		copies = max(1, s.overlay.Stats().Replication-1)
	}
	rings := make(map[string][]string)
	for c, chunk := range chunks {
		entries := make([]manifestEntry, len(chunk))
		fm.chunks[c] = entries
		for i, d := range chunk {
			payload, err := types.Marshal(d)
			if err != nil {
				fm.release()
				return nil, err
			}
			if len(payload) <= chunkstore.MaxInline {
				entries[i] = manifestEntry{data: payload}
				continue
			}
			digest := chunkstore.Digest(payload)
			ring, seen := rings[digest]
			if !seen {
				s.chunks.Pin(digest, payload)
				if s.overlay != nil {
					acked, err := s.overlay.PutChunk(digest, payload, copies)
					if err != nil {
						s.logf("service: farm chunk replicate %.12s: %v", digest, err)
					}
					sent := int64(len(acked)) * int64(len(payload))
					s.resStats.FarmEgressBytes.Add(sent)
					tstats.egress.Add(sent)
					ring = acked
				}
				rings[digest] = ring
			}
			entries[i] = manifestEntry{digest: digest, ring: ring}
		}
	}
	return fm, nil
}

// release unpins the farm's chunks once each, which drops them from
// the controller's store unless another live farm pins them too: the
// farm's stragglers are reaped before it returns, so no one is left to
// fetch them.
func (fm *farmManifests) release() {
	seen := make(map[string]bool)
	for _, chunk := range fm.chunks {
		for _, e := range chunk {
			if e.digest != "" && !seen[e.digest] {
				seen[e.digest] = true
				fm.s.chunks.Unpin(e.digest)
			}
		}
	}
}

// manifestFor renders chunk c's manifest with the hints known right
// now — a retry or speculative backup of a chunk another donor already
// resolved gets that donor as a peer rung.
func (fm *farmManifests) manifestFor(c int, excludeAddr string) []byte {
	fm.mu.Lock()
	defer fm.mu.Unlock()
	m := &chunkstore.Manifest{Origin: fm.origin, Items: make([]chunkstore.Item, len(fm.chunks[c]))}
	for i, e := range fm.chunks[c] {
		if e.digest == "" {
			m.Items[i] = chunkstore.Item{Data: e.data}
			continue
		}
		var peers []string
		for _, addr := range fm.hints[e.digest] {
			if addr != excludeAddr {
				peers = append(peers, addr)
			}
		}
		m.Items[i] = chunkstore.Item{Digest: e.digest, Ring: e.ring, Peers: peers}
	}
	return chunkstore.EncodeManifest(m)
}

// recordResolved notes that a donor materialised chunk c (its attempt
// returned a complete result), making it a fetch source for those
// digests.
func (fm *farmManifests) recordResolved(c int, donorAddr string) {
	if donorAddr == "" {
		return
	}
	fm.mu.Lock()
	defer fm.mu.Unlock()
	for _, e := range fm.chunks[c] {
		if e.digest == "" {
			continue
		}
		hints := fm.hints[e.digest]
		known := false
		for _, a := range hints {
			if a == donorAddr {
				known = true
				break
			}
		}
		if !known && len(hints) < maxPeerHints {
			fm.hints[e.digest] = append(hints, donorAddr)
		}
	}
}
