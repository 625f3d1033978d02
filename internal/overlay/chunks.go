// Chunk replica placement on the super-peer ring. The discovery
// overlay already gives every key a consistent-hash home and R-way
// replication; the data tier reuses exactly that machinery for
// content-addressed chunks: a controller writes each chunk to ring
// owners of its digest, and donors fetch from the owners that acked
// over the chunk-fetch wire conversation before falling back to each
// other or the controller.
//
// Unlike adverts, chunks are immutable and self-verifying (the key is
// the SHA-256 of the bytes), so there are no versions, no tombstones
// and no anti-entropy: a replica either holds the digest or it does
// not, and a fetched payload proves itself.
package overlay

import (
	"fmt"
	"strconv"

	"consumergrid/internal/chunkstore"
	"consumergrid/internal/jxtaserve"
)

// methodChunkPut stores one chunk replica on a super-peer.
// Headers: digest; payload: the chunk bytes.
const methodChunkPut = "overlay.chunk.put"

// ChunkVault is the storage a super-peer accepts chunk replicas into
// and serves chunk-fetch conversations from. *chunkstore.Store
// satisfies it; the interface keeps the overlay agnostic of cache
// policy.
type ChunkVault interface {
	Put(digest string, data []byte)
	Get(digest string) ([]byte, bool)
}

// ChunkKey places a digest on the ring, namespaced away from the
// advert topic keys.
func ChunkKey(digest string) string { return "chunk/" + digest }

// handleChunkPut accepts one replica after verifying the bytes hash to
// their claimed digest — a corrupt or hostile write is refused, never
// served onward.
func (s *SuperPeer) handleChunkPut(req *jxtaserve.Message) (*jxtaserve.Message, error) {
	vault := s.opts.Chunks
	if vault == nil {
		return nil, fmt.Errorf("no chunk vault at %s", s.host.PeerID())
	}
	digest := req.Header("digest")
	if digest == "" {
		return nil, fmt.Errorf("chunk.put without digest")
	}
	if chunkstore.Digest(req.Payload) != digest {
		return nil, fmt.Errorf("chunk.put payload does not hash to %s", digest)
	}
	vault.Put(digest, req.Payload)
	s.metrics.chunkPuts.Inc()
	s.metrics.chunkPutBytes.Add(int64(len(req.Payload)))
	return &jxtaserve.Message{}, nil
}

// ChunkOwners reports the ring addresses responsible for a digest, in
// placement order.
func (c *Client) ChunkOwners(digest string) []string {
	return c.opts.Ring.Owners(ChunkKey(digest), c.opts.Replication)
}

// PutChunk writes one chunk to `copies` ring owners of its digest. It
// tries the owners in placement order and moves to the next one when a
// write fails, and returns the owners that acknowledged — exactly the
// ring rungs a manifest may name. Chunks are immutable, so unlike
// adverts there is no version to coordinate. Fewer acks than asked is
// not an error: a missed replica only shortens the fetch ladder, and
// the controller-direct rung still resolves the digest.
func (c *Client) PutChunk(digest string, data []byte, copies int) ([]string, error) {
	owners := c.ChunkOwners(digest)
	if len(owners) == 0 {
		return nil, fmt.Errorf("overlay: no super-peers on the ring")
	}
	headers := map[string]string{
		"digest": digest,
		"size":   strconv.Itoa(len(data)),
	}
	var acked []string
	var lastErr error
	for _, addr := range owners {
		if len(acked) >= copies {
			break
		}
		if _, err := c.host.Request(addr, methodChunkPut, data, headers); err != nil {
			c.health.ReportFailure(addr)
			lastErr = err
			c.logf("overlay: %s chunk.put %s via %s: %v", c.host.PeerID(), digest[:min(12, len(digest))], addr, err)
			continue
		}
		c.health.ReportSuccess(addr, 0)
		acked = append(acked, addr)
	}
	if len(acked) == 0 {
		return nil, lastErr
	}
	return acked, nil
}
