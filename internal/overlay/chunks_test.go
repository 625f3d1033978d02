package overlay

import (
	"fmt"
	"testing"
	"time"

	"consumergrid/internal/chunkstore"
	"consumergrid/internal/jxtaserve"
	"consumergrid/internal/metrics"
	"consumergrid/internal/simnet"
)

// chunkCluster is newCluster with a chunk vault attached to every
// super, the shape a data-tier ring runs in production.
type chunkCluster struct {
	*cluster
	vaults []*chunkstore.Store
}

func newChunkCluster(t *testing.T, n, r int) *chunkCluster {
	t.Helper()
	c := &chunkCluster{cluster: &cluster{t: t, net: simnet.New(), ring: NewRing(0)}}
	for i := 0; i < n; i++ {
		label := fmt.Sprintf("super-%d", i)
		h, err := jxtaserve.NewHost(label, c.net.Peer(label), "")
		if err != nil {
			t.Fatal(err)
		}
		c.hosts = append(c.hosts, h)
		c.ring.Add(h.Addr())
	}
	for i, h := range c.hosts {
		vault := chunkstore.New(chunkstore.Options{
			Owner:    fmt.Sprintf("super-%d", i),
			Registry: metrics.NewRegistry(),
		})
		c.vaults = append(c.vaults, vault)
		sp, err := NewSuper(h, SuperOptions{
			Ring: c.ring, Replication: r, SweepInterval: -1, Chunks: vault,
		})
		if err != nil {
			t.Fatal(err)
		}
		c.supers = append(c.supers, sp)
	}
	t.Cleanup(func() {
		for _, sp := range c.supers {
			sp.Close()
		}
		for _, h := range c.hosts {
			h.Close()
		}
	})
	return c
}

func TestPutChunkReplicatesToRingOwners(t *testing.T) {
	c := newChunkCluster(t, 3, 2)
	cl := c.client("controller", 2)

	data := []byte("immutable chunk bytes")
	digest := chunkstore.Digest(data)

	acked, err := cl.PutChunk(digest, data, 2)
	if err != nil {
		t.Fatal(err)
	}
	owners := cl.ChunkOwners(digest)
	if len(owners) != 2 {
		t.Fatalf("owners = %v", owners)
	}
	if len(acked) != 2 || acked[0] != owners[0] || acked[1] != owners[1] {
		t.Fatalf("acked = %v, want both owners %v in placement order", acked, owners)
	}
	isOwner := map[string]bool{}
	for _, addr := range owners {
		isOwner[addr] = true
	}
	for i, h := range c.hosts {
		_, held := c.vaults[i].Get(digest)
		if held != isOwner[h.Addr()] {
			t.Fatalf("super %d (owner=%v) held=%v", i, isOwner[h.Addr()], held)
		}
	}

	// The replica serves the chunk back over the chunk-fetch wire
	// conversation — the ring rung of a donor's fetch ladder.
	fh, err := jxtaserve.NewHost("donor", c.net.Peer("donor"), "")
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	got, err := fh.FetchChunk(owners[0], digest, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(data) {
		t.Fatalf("fetched %q", got)
	}
}

func TestPutChunkRejectsCorruptPayload(t *testing.T) {
	c := newChunkCluster(t, 2, 2)
	cl := c.client("controller", 2)
	if _, err := cl.PutChunk(chunkstore.Digest([]byte("real")), []byte("fake"), 2); err == nil {
		t.Fatal("corrupt chunk.put was accepted")
	}
	for i := range c.vaults {
		if c.vaults[i].Len() != 0 {
			t.Fatalf("super %d stored a corrupt chunk", i)
		}
	}
}

func TestPutChunkWithoutVaultRefused(t *testing.T) {
	// newCluster attaches no vault: discovery-only supers must refuse
	// chunk writes rather than silently dropping them.
	c := newCluster(t, 2, 2, time.Now)
	cl := c.client("controller", 2)
	data := []byte("x")
	if _, err := cl.PutChunk(chunkstore.Digest(data), data, 2); err == nil {
		t.Fatal("chunk.put accepted by vault-less super")
	}
}

func TestPutChunkSurvivesDeadReplica(t *testing.T) {
	c := newChunkCluster(t, 3, 2)
	cl := c.client("controller", 2)
	data := []byte("replicated despite a dead owner")
	digest := chunkstore.Digest(data)

	owners := cl.ChunkOwners(digest)
	// Kill the primary owner; the write still lands on the surviving
	// replica and reports it as the one ack.
	c.killOwner(owners[0])
	acked, err := cl.PutChunk(digest, data, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(acked) != 1 || acked[0] != owners[1] {
		t.Fatalf("acked = %v, want only the live owner %s (primary dead)", acked, owners[1])
	}
}

// TestPutChunkOneCopyStopsAtFirstAck: asking for one copy writes to the
// primary owner only, so the second owner never sees the bytes.
func TestPutChunkOneCopyStopsAtFirstAck(t *testing.T) {
	c := newChunkCluster(t, 3, 2)
	cl := c.client("controller", 2)
	data := []byte("one ring copy")
	digest := chunkstore.Digest(data)

	owners := cl.ChunkOwners(digest)
	acked, err := cl.PutChunk(digest, data, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(acked) != 1 || acked[0] != owners[0] {
		t.Fatalf("acked = %v, want the primary %s alone", acked, owners[0])
	}
	for i, h := range c.hosts {
		if _, held := c.vaults[i].Get(digest); held != (h.Addr() == owners[0]) {
			t.Fatalf("super %d (%s) held=%v; only the primary should", i, h.Addr(), held)
		}
	}
}

// TestPutChunkOneCopyFailsOver: with the primary owner dead, one copy
// asked is one copy written — on the next owner in placement order.
func TestPutChunkOneCopyFailsOver(t *testing.T) {
	c := newChunkCluster(t, 3, 2)
	cl := c.client("controller", 2)
	data := []byte("one copy, primary dead")
	digest := chunkstore.Digest(data)

	owners := cl.ChunkOwners(digest)
	c.killOwner(owners[0])
	acked, err := cl.PutChunk(digest, data, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(acked) != 1 || acked[0] != owners[1] {
		t.Fatalf("acked = %v, want the next owner %s", acked, owners[1])
	}
	for i, h := range c.hosts {
		if h.Addr() == owners[1] {
			if _, held := c.vaults[i].Get(digest); !held {
				t.Fatalf("next owner %s does not hold the chunk", owners[1])
			}
		}
	}
}

// killOwner kills the super listening at addr.
func (c *chunkCluster) killOwner(addr string) {
	for i, h := range c.hosts {
		if h.Addr() == addr {
			c.net.Kill(fmt.Sprintf("super-%d", i))
		}
	}
}
