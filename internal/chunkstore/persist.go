package chunkstore

import (
	"fmt"

	"consumergrid/internal/frame"
)

// Digests lists every resident digest, pinned or not — the enumeration
// a draining super-peer uses to hand its chunk replicas to ring
// successors.
func (s *Store) Digests() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.entries))
	for d := range s.entries {
		out = append(out, d)
	}
	return out
}

// ExportPinned serialises the pinned working set (digest + payload per
// entry) for the daemon's crash-safe checkpoint. Only pinned entries
// go to disk: they are the chunks live farms depend on the controller
// to serve; the unpinned LRU is just cache and refills on demand.
// Nested pins flatten to one entry.
func (s *Store) ExportPinned() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	var pinned []*entry
	for _, e := range s.entries {
		if e.pins > 0 {
			pinned = append(pinned, e)
		}
	}
	out := frame.AppendUvarint(nil, uint64(len(pinned)))
	for _, e := range pinned {
		out = frame.AppendString(out, e.digest)
		out = frame.AppendBytes(out, e.data)
	}
	return out
}

// RestorePinned loads a set exported by ExportPinned as unpinned cache
// entries, verifying each payload against its digest (a checkpoint
// restored from disk gets the same distrust as bytes fetched from a
// peer). No farm of this process holds their pins: a resumed farm pins
// its own payloads, and a farm never resumed must not keep its chunks
// exempt from the budget forever. Returns how many chunks were
// restored.
func (s *Store) RestorePinned(b []byte) (int, error) {
	r := frame.NewReader(b)
	count := r.Count(2)
	restored := 0
	for ; restored < count; restored++ {
		dig, data := r.String(len(b)), r.Bytes(len(b))
		if r.Err() != nil {
			break
		}
		if got := Digest(data); got != dig {
			s.digestMismatch.Inc()
			return restored, fmt.Errorf("chunkstore: restored chunk %s hashes to %s", short(dig), short(got))
		}
		s.Put(dig, append([]byte(nil), data...))
	}
	if err := r.Err(); err != nil {
		return restored, fmt.Errorf("chunkstore: pinned set: %w", err)
	}
	return restored, nil
}
