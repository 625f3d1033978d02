// Package overlay is the Consumer Grid's discovery tier, the only one
// daemons use: a ring of replicated super-peers in place of the flat
// rendezvous list (internal/discovery keeps that list as an experiment
// baseline). Three mechanisms carry the load the
// paper's JXTA rendezvous peers carried, at a scale the flat version
// cannot reach:
//
//   - a consistent-hash ring (virtual nodes, replication factor R >= 2)
//     places every advertisement on R super-peers, so adverts survive a
//     rendezvous failure and membership changes remap only ~1/S of the
//     keyspace instead of rehashing everything;
//   - a publish/subscribe layer: controllers register persistent
//     advert.Query subscriptions and super-peers push matching adverts
//     (new donors, expiries, capability changes) the moment they change,
//     replacing poll-the-index with event-driven discovery — the model
//     the pub/sub performance literature shows beats repeated lookup for
//     exactly this workload;
//   - anti-entropy sync: super-peers periodically exchange per-shard
//     digests (hash + count) and pull only the shards that differ, so
//     replicas converge after partitions heal with bounded traffic.
//
// Everything runs over the jxtaserve transport abstraction, so the same
// protocol code serves TCP deployments, in-process tests and the
// instrumented simnet used by the chaos and scaling experiments.
package overlay

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
)

// DefaultVirtualNodes is the ring points each super-peer contributes.
// More points smooth the keyspace split; 64 keeps the per-node memory
// trivial while bounding the largest arc near the fair share.
const DefaultVirtualNodes = 64

// DefaultReplication is the advert replication factor R: every key is
// owned by this many distinct super-peers (capped by ring size).
const DefaultReplication = 2

// DefaultShards is the anti-entropy digest granularity: the keyspace is
// folded into this many shards, each summarised by one (count, hash)
// pair, so a sync round costs O(shards) regardless of advert count.
const DefaultShards = 32

// hash64 is the ring's placement hash: FNV-1a finished with a 64-bit
// avalanche mix. Raw FNV-1a clusters badly on the short similar strings
// rings are full of ("super-0#12", "key-37"), which skews arc lengths
// by multiples; the finalizer spreads the bits uniformly. The function
// is deterministic and stable across processes and releases — ring
// positions are part of the protocol.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return mix64(h.Sum64())
}

// mix64 is the murmur3/splitmix-style finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// ShardOf folds a key into one of the DefaultShards anti-entropy
// buckets.
func ShardOf(key string) int {
	return int(hash64(key) % DefaultShards)
}

// TopicKey is the placement key for an advertisement: adverts are
// sharded by (kind, name) topic, not by publisher, so that a query for
// "the triana services" routes to the O(R) owners of that one topic
// instead of fanning out to every super-peer. Publisher-keyed placement
// would balance storage slightly better but make every query a
// broadcast — the opposite of what a discovery index is for.
func TopicKey(kind, name string) string {
	return string(kind) + "\x00" + name
}

// point is one virtual node on the ring.
type point struct {
	hash uint64
	node string
}

// Ring is a consistent-hash ring over super-peer addresses. It is safe
// for concurrent use; membership changes are incremental (adding or
// removing a node moves only the arcs adjacent to its virtual points).
//
// The ring is also the controller's placement function: the donor pool
// shards donors and farms with the same consistent hash that places
// their adverts.
type Ring struct {
	mu     sync.RWMutex
	vnodes int
	points []point
	nodes  map[string]bool
}

// NewRing builds a ring with the given virtual-node count (<= 0 selects
// DefaultVirtualNodes) over the initial membership.
func NewRing(vnodes int, nodes ...string) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	r := &Ring{vnodes: vnodes, nodes: make(map[string]bool)}
	for _, n := range nodes {
		r.Add(n)
	}
	return r
}

// Add joins a node to the ring (idempotent).
func (r *Ring) Add(node string) {
	if node == "" {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.nodes[node] {
		return
	}
	r.nodes[node] = true
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, point{hash64(fmt.Sprintf("%s#%d", node, i)), node})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// Remove leaves a node from the ring (idempotent).
func (r *Ring) Remove(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.nodes[node] {
		return
	}
	delete(r.nodes, node)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != node {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Len reports the member count.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.nodes)
}

// Nodes lists the members, sorted for determinism.
func (r *Ring) Nodes() []string {
	r.mu.RLock()
	out := make([]string, 0, len(r.nodes))
	for n := range r.nodes {
		out = append(out, n)
	}
	r.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Owners returns the n distinct nodes owning key, walking clockwise
// from the key's ring position (the primary first, then the replicas).
// Fewer than n members returns them all.
func (r *Ring) Owners(key string, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	h := hash64(key)
	// First point with hash >= h, wrapping at the top of the ring.
	idx := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(idx+i)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, p.node)
		}
	}
	return out
}

// Primary returns the first owner of key, or "" on an empty ring.
func (r *Ring) Primary(key string) string {
	owners := r.Owners(key, 1)
	if len(owners) == 0 {
		return ""
	}
	return owners[0]
}
