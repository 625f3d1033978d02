package overlay

import (
	"fmt"
	"strconv"

	"consumergrid/internal/trace"
)

// This file is the overlay's side of the daemon lifecycle: a draining
// client retracts everything it published (RetractAll), a draining
// super-peer pushes its shard and chunk replicas to the ring's
// remaining members (Handoff), and a checkpointing daemon snapshots
// the advert store (ExportEntries/RestoreEntries) so a restart rejoins
// the ring warm instead of triggering a cold re-discovery storm.

// RetractAll withdraws every advert this client has published,
// tombstoning each on the ring. It keeps going past individual
// failures (a dead super is repaired by anti-entropy later) and
// returns how many retractions were acknowledged plus the first error.
func (c *Client) RetractAll() (int, error) {
	c.mu.Lock()
	ids := make([]string, 0, len(c.published))
	for id := range c.published {
		ids = append(ids, id)
	}
	c.mu.Unlock()
	done := 0
	var first error
	for _, id := range ids {
		if err := c.Retract(id); err != nil {
			if first == nil {
				first = err
			}
			continue
		}
		done++
	}
	return done, first
}

// ExportEntries snapshots the entire advert store — live entries and
// tombstones, versions intact — in the same framing the anti-entropy
// sync-pull reply uses, so a checkpoint section and a repair payload
// are one format.
func (s *SuperPeer) ExportEntries() []byte {
	return encodeEntries(s.store.all())
}

// RestoreEntries merges an ExportEntries payload into the store.
// Version ordering makes the merge idempotent and safe against a
// stale checkpoint: anything the ring has since outbid is rejected
// entry by entry. Returns how many entries were accepted.
func (s *SuperPeer) RestoreEntries(b []byte) (int, error) {
	entries, err := decodeEntries(b)
	if err != nil {
		return 0, err
	}
	accepted := 0
	for _, e := range entries {
		if s.store.put(e) {
			accepted++
		}
	}
	if accepted > 0 {
		s.updateStoreGauges()
	}
	return accepted, nil
}

// HandoffReport counts what a draining super-peer managed to push to
// its successors.
type HandoffReport struct {
	// Adverts and Chunks count items accepted by at least one successor.
	Adverts, Chunks int
	// Errors counts individual push attempts that failed.
	Errors int
}

// Handoff pushes this super-peer's state to the nodes that will own it
// once we leave the ring: every store entry (live adverts as replica
// publishes, tombstones as replica retractions) and every resident
// chunk replica go to the owners computed on the ring minus ourselves.
// Receivers merge by version, so repeating a handoff — or handing off
// state a successor already holds — is a no-op. With no other ring
// member the report is empty and the state survives only through the
// daemon's checkpoint.
func (s *SuperPeer) Handoff() (HandoffReport, error) {
	var rep HandoffReport
	self := s.host.Addr()
	var rest []string
	for _, n := range s.opts.Ring.Nodes() {
		if n != self {
			rest = append(rest, n)
		}
	}
	if len(rest) == 0 {
		return rep, nil
	}
	succ := NewRing(0, rest...)

	span := s.tracer.Start("", "", "overlay.handoff", s.host.PeerID())
	defer span.End()

	for _, e := range s.store.all() {
		if !e.Tombstone && e.xml == nil {
			continue // live entry with no body cannot be re-published
		}
		method, h := replicaRequest(e, span)
		delivered := false
		for _, owner := range succ.Owners(placementKey(e), s.opts.Replication) {
			if _, err := s.host.Request(owner, method, e.xml, h); err != nil {
				rep.Errors++
				s.logf("overlay: %s handoff %s to %s: %v", s.host.PeerID(), e.ID, owner, err)
				continue
			}
			delivered = true
		}
		if delivered {
			rep.Adverts++
		}
	}

	if lister, ok := s.opts.Chunks.(interface{ Digests() []string }); ok {
		for _, digest := range lister.Digests() {
			data, ok := s.opts.Chunks.Get(digest)
			if !ok {
				continue
			}
			h := map[string]string{"digest": digest}
			trace.Inject(span, func(k, v string) { h[k] = v })
			delivered := false
			for _, owner := range succ.Owners(ChunkKey(digest), s.opts.Replication) {
				if _, err := s.host.Request(owner, methodChunkPut, data, h); err != nil {
					rep.Errors++
					s.logf("overlay: %s handoff chunk %.12s to %s: %v", s.host.PeerID(), digest, owner, err)
					continue
				}
				delivered = true
			}
			if delivered {
				rep.Chunks++
			}
		}
	}

	span.SetAttr("adverts", strconv.Itoa(rep.Adverts))
	span.SetAttr("chunks", strconv.Itoa(rep.Chunks))
	span.SetAttr("errors", strconv.Itoa(rep.Errors))
	if rep.Errors > 0 {
		return rep, fmt.Errorf("overlay: handoff completed with %d failed pushes", rep.Errors)
	}
	return rep, nil
}
