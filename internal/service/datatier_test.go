package service

// The data-tier acceptance battery: manifest despatch end to end over a
// super-peer ring, the controller's egress against the cost of
// streaming every attempt its chunk, the peer-to-peer rung of the fetch ladder,
// the chaos case — the ring replica holding a farm's chunks dies
// mid-farm and the controller-direct fallback carries the rest — a
// manifest naming only the ring owners that acked a chunk's write,
// tiny datums riding the manifest by value, and the controller holding
// nothing of a farm's inputs once the farm is over.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"consumergrid/internal/chunkstore"
	"consumergrid/internal/jxtaserve"
	"consumergrid/internal/simnet"
	"consumergrid/internal/taskgraph"
	"consumergrid/internal/types"
	"consumergrid/internal/units"
	"consumergrid/internal/units/mathx"
)

// tierNet is a data-tier grid: a controller, donors and an optional
// super-peer ring, every participant's transport tapped so tests can
// count what crossed the wire by message kind.
type tierNet struct {
	ctl    *Service
	donors []*Service
	peers  []PeerRef
	supers []*Service
	taps   map[string]*simnet.Tap // by peer label
	// runManifests reads the manifest sections of the controller's
	// triana.run requests.
	runManifests *runManifestTap
}

// runManifestTap wraps a transport and sums the manifest sections of
// the triana.run requests sent over it.
type runManifestTap struct {
	jxtaserve.Transport
	mu    sync.Mutex
	runs  int   // requests that carried a manifest
	bytes int64 // their manifest sections
	piped int   // requests that named a pipe (an in.N.* or out.N.* header)
}

func (m *runManifestTap) Dial(addr string) (jxtaserve.Conn, error) {
	c, err := m.Transport.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &runManifestConn{Conn: c, tap: m}, nil
}

func (m *runManifestTap) read() (runs int, bytes int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.runs, m.bytes
}

// pipedRuns counts the triana.run requests that named a pipe.
func (m *runManifestTap) pipedRuns() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.piped
}

type runManifestConn struct {
	jxtaserve.Conn
	tap *runManifestTap
}

func (c *runManifestConn) Send(msg *jxtaserve.Message) error {
	if msg.Kind == jxtaserve.KindRPC && msg.Header("method") == MethodRun {
		c.tap.mu.Lock()
		for k := range msg.Headers {
			if (strings.HasPrefix(k, "in.") || strings.HasPrefix(k, "out.")) && !strings.HasSuffix(k, ".count") {
				c.tap.piped++
				break
			}
		}
		if msg.Header(hdrInputs) == inputsManifest {
			if _, _, man, err := decodeRunPayload(msg.Payload, true); err == nil {
				c.tap.runs++
				c.tap.bytes += int64(len(man))
			}
		}
		c.tap.mu.Unlock()
	}
	return c.Conn.Send(msg)
}

// dataTierNet builds a controller plus `donors` donors and a ring of
// `supers` super-peers at R = supers for chunk placement (0: no ring).
// Labels are prefixed per test: the process-global metrics registry
// keys series by peer.
func dataTierNet(t *testing.T, n *simnet.Network, prefix string, supers, donors int) *tierNet {
	t.Helper()
	tn := &tierNet{taps: make(map[string]*simnet.Tap)}
	tap := func(label string) *simnet.Tap {
		tp := simnet.NewTap(n.Peer(label))
		tn.taps[label] = tp
		return tp
	}
	var superAddrs []string
	for i := 0; i < supers; i++ {
		label := prefix + "super"
		if i > 0 {
			label += string(rune('1' + i))
		}
		sp := newService(t, tap(label), label, Options{
			Overlay: &OverlayOptions{
				SuperPeers: superAddrs, SuperPeer: true, Replication: supers, SweepInterval: -1,
			},
		})
		tn.supers = append(tn.supers, sp)
		superAddrs = append(superAddrs, sp.Addr())
	}
	ctlOpts := Options{Resilience: chaosResilience()}
	if supers > 0 {
		ctlOpts.Overlay = &OverlayOptions{SuperPeers: superAddrs, Replication: supers}
	}
	tn.runManifests = &runManifestTap{Transport: tap(prefix + "ctl")}
	tn.ctl = newService(t, tn.runManifests, prefix+"ctl", ctlOpts)
	for i := 0; i < donors; i++ {
		label := prefix + "w" + string(rune('1'+i))
		w := newService(t, tap(label), label, Options{})
		tn.donors = append(tn.donors, w)
		tn.peers = append(tn.peers, PeerRef{ID: label, Addr: w.Addr()})
	}
	return tn
}

// bigChunks derives chunks of wide spectra — payloads large enough
// that digest/manifest overhead is noise against the data bytes, the
// regime the tier is built for.
func bigChunks(seed int64, nChunks, perChunk, bins int) [][]types.Data {
	chunks := chaosChunks(seed, nChunks, perChunk)
	for _, chunk := range chunks {
		for _, d := range chunk {
			sp := d.(*types.Spectrum)
			amps := make([]float64, bins)
			for i := range amps {
				amps[i] = sp.Amplitudes[i%2] + float64(i)
			}
			sp.Amplitudes = amps
		}
	}
	return chunks
}

// ladderBins widens a spectrum past chunkstore.MaxInline, so every
// datum of the fetch-ladder tests travels by reference.
const ladderBins = 64

// TestFarmManifestDespatch is the plain-farm manifest path: with the
// tier negotiated everywhere and a ring for placement, a farm's outputs
// are identical to the streaming run's and every chunk is resolved
// through the fetch ladder rather than the controller's stream.
func TestFarmManifestDespatch(t *testing.T) {
	chunks := bigChunks(chaosSeed, 4, 5, ladderBins)
	want := faultFreeBaseline(t, chunks)

	n := simnet.New()
	tn := dataTierNet(t, n, "dt-", 1, 2)
	ctl, donors, peers := tn.ctl, tn.donors, tn.peers
	rep := runChaosFarm(t, ctl, peers, chunks, FarmOptions{})
	assertSameOutputs(t, rep.Outputs, want)

	var hits, ring, peer, origin int64
	for _, d := range donors {
		snap := d.ChunkStore().Snapshot()
		hits += snap.Hits
		ring += snap.FetchRing
		peer += snap.FetchPeer
		origin += snap.FetchController
	}
	if ring+peer+origin+hits == 0 {
		t.Fatal("no donor resolved any chunk through the fetch ladder; manifests were never despatched")
	}
	if ring == 0 {
		t.Error("no chunk was fetched from the ring replica despite a live super")
	}
	if egress := ctl.Resilience().Snapshot().FarmEgressBytes; egress == 0 {
		t.Fatal("egress accounting dead")
	}
	t.Logf("fetches: ring=%d peer=%d controller=%d hits=%d", ring, peer, origin, hits)
}

// TestFarmEgressReduction is the data tier's egress bound under quorum
// despatch. Streaming would cost the controller each chunk's bytes once
// per launched attempt — two per clean chunk, as a quorum of three
// launches a majority first. The manifest controller pays one canonical
// pass of the farm's inputs, the ring write-through, plus the manifest
// each launched run carries, and nothing more.
func TestFarmEgressReduction(t *testing.T) {
	chunks := bigChunks(chaosSeed, 3, 4, 512)
	want := faultFreeBaseline(t, chunks)

	n := simnet.New()
	tn := dataTierNet(t, n, "eg-", 1, 3)
	ctl, peers := tn.ctl, tn.peers
	despatched, refused := despatchesTotal.Value(), despatchFailures.Value()
	rep := runChaosFarm(t, ctl, peers, chunks, FarmOptions{Quorum: 3})
	assertSameOutputs(t, rep.Outputs, want)

	// Every chunk has the same width, so each launched attempt would
	// stream the mean chunk's canonical bytes.
	var payloadBytes int64
	for _, chunk := range chunks {
		for _, d := range chunk {
			_, p, err := chunkstore.DigestData(d)
			if err != nil {
				t.Fatal(err)
			}
			payloadBytes += int64(len(p))
		}
	}
	launched := despatchesTotal.Value() - despatched + despatchFailures.Value() - refused
	streamEgress := launched * payloadBytes / int64(len(chunks))
	_, manifestBytes := tn.runManifests.read()
	egress := ctl.Resilience().Snapshot().FarmEgressBytes
	if egress == 0 {
		t.Fatal("egress accounting dead")
	}
	if bound := payloadBytes + manifestBytes; egress > bound {
		t.Errorf("data-tier egress %d exceeds one pass of the inputs (%d) plus the runs' manifests (%d)",
			egress, payloadBytes, manifestBytes)
	}
	t.Logf("egress: analytic streaming=%d (%d attempts) data-tier=%d (%.0f%% saved; inputs %d, manifests %d)",
		streamEgress, launched, egress, 100*(1-float64(egress)/float64(streamEgress)), payloadBytes, manifestBytes)
}

// TestResolveManifestPeerRung exercises the donor-to-donor rung in
// isolation: a manifest whose only hint is a sibling donor that already
// holds the chunk resolves without touching ring or controller, and a
// re-resolve hits the local cache.
func TestResolveManifestPeerRung(t *testing.T) {
	n := simnet.New()
	a := newService(t, n.Peer("pr-a"), "pr-a", Options{})
	b := newService(t, n.Peer("pr-b"), "pr-b", Options{})

	data := []types.Data{
		&types.Spectrum{Resolution: 1, Amplitudes: []float64{1, 2}},
		&types.Spectrum{Resolution: 1, Amplitudes: []float64{3, 4}},
	}
	m := &chunkstore.Manifest{}
	for _, d := range data {
		digest, payload, err := chunkstore.DigestData(d)
		if err != nil {
			t.Fatal(err)
		}
		a.ChunkStore().Put(digest, payload)
		m.Items = append(m.Items, chunkstore.Item{Digest: digest, Peers: []string{a.Addr()}})
	}

	payloads, err := b.resolveManifest(context.Background(), chunkstore.EncodeManifest(m), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(payloads) != len(data) {
		t.Fatalf("resolved %d payloads, want %d", len(payloads), len(data))
	}
	snap := b.ChunkStore().Snapshot()
	if snap.FetchPeer != int64(len(data)) {
		t.Errorf("peer fetches = %d, want %d", snap.FetchPeer, len(data))
	}
	if snap.FetchRing != 0 || snap.FetchController != 0 {
		t.Errorf("ladder skipped the peer rung: ring=%d controller=%d", snap.FetchRing, snap.FetchController)
	}
	if _, err := b.resolveManifest(context.Background(), chunkstore.EncodeManifest(m), nil); err != nil {
		t.Fatal(err)
	}
	if snap := b.ChunkStore().Snapshot(); snap.Hits != int64(len(data)) {
		t.Errorf("re-resolve hits = %d, want %d (local cache)", snap.Hits, len(data))
	}
}

// TestFarmSurvivesDeadChunkReplica is the chaos satellite: the single
// ring replica holding the farm's chunks is killed after the first
// chunk commits. Later manifests still name the dead super, the ring
// rung times out, and the controller-direct fallback completes the farm
// with outputs identical to the fault-free run.
func TestFarmSurvivesDeadChunkReplica(t *testing.T) {
	chunks := bigChunks(chaosSeed, 4, 5, ladderBins)
	want := faultFreeBaseline(t, chunks)

	n := simnet.New()
	tn := dataTierNet(t, n, "dr-", 1, 2)
	ctl, donors, peers := tn.ctl, tn.donors, tn.peers
	rep := runChaosFarm(t, ctl, peers, chunks, FarmOptions{
		AfterChunk: func(c int) {
			if c == 0 {
				n.Kill("dr-super")
			}
		},
	})
	assertSameOutputs(t, rep.Outputs, want)

	var ring, origin int64
	for _, d := range donors {
		snap := d.ChunkStore().Snapshot()
		ring += snap.FetchRing
		origin += snap.FetchController
	}
	if origin == 0 {
		t.Error("no controller-direct fetches despite a dead ring replica; the fallback never engaged")
	}
	t.Logf("ring=%d controller=%d after replica death", ring, origin)
}

// TestFarmManifestSkipsFailedRingOwner: one of two supers is dead when
// the farm starts. The controller's write to it fails, so no manifest
// names it as a ring rung: outputs match the reference and no donor
// fetch ever goes to the dead super.
func TestFarmManifestSkipsFailedRingOwner(t *testing.T) {
	chunks := bigChunks(chaosSeed, 4, 5, ladderBins)
	want := faultFreeBaseline(t, chunks)

	n := simnet.New()
	tn := dataTierNet(t, n, "fo-", 2, 2)
	dead := tn.supers[1].Addr()
	n.Kill("fo-super2")
	rep := runChaosFarm(t, tn.ctl, tn.peers, chunks, FarmOptions{})
	assertSameOutputs(t, rep.Outputs, want)

	var ring int64
	for i, d := range tn.donors {
		if dials := tn.taps[tn.peers[i].ID].Dialed(dead); dials != 0 {
			t.Errorf("donor %s dialled the dead super %d times: a manifest named an owner that never got the chunk",
				tn.peers[i].ID, dials)
		}
		ring += d.ChunkStore().Snapshot().FetchRing
	}
	if ring == 0 {
		t.Error("no chunk came from the live ring owner")
	}
}

// TestFarmTinyDatumsTravelByValue: every datum of chaosChunks (a 2-bin
// spectrum, 47 bytes) is shorter than its own hex digest, so it rides
// the manifest by value on the way out and the wait reply by value on
// the way back. The outputs match the plain run; every attempt was one
// triana.run carrying its manifest and naming no pipe, then one
// triana.wait — no pipe.bind, pipe.data or pipe.eof frame crossed the
// controller's link either way; no byte went to the ring, no peer sent
// a chunk.fetch, and the controller pinned and cached nothing.
func TestFarmTinyDatumsTravelByValue(t *testing.T) {
	chunks := chaosChunks(chaosSeed, 4, 5)
	want := faultFreeBaseline(t, chunks)

	n := simnet.New()
	tn := dataTierNet(t, n, "bv-", 1, 2)
	pinned := -1
	rep := runChaosFarm(t, tn.ctl, tn.peers, chunks, FarmOptions{
		AfterChunk: func(c int) {
			if c == 0 {
				pinned = tn.ctl.ChunkStore().Len()
			}
		},
	})
	assertSameOutputs(t, rep.Outputs, want)

	ctlTap := tn.taps["bv-ctl"]
	attempts := ctlTap.SentMsgs("rpc/" + MethodRun)
	if runs, b := tn.runManifests.read(); runs != attempts || b == 0 {
		t.Fatalf("%d of %d triana.run requests carried a manifest (%d bytes)", runs, attempts, b)
	}
	if n := tn.runManifests.pipedRuns(); n != 0 {
		t.Errorf("%d of %d triana.run requests named a pipe (in.N.* or out.N.* headers)", n, attempts)
	}
	if waits := ctlTap.SentMsgs("rpc/" + MethodWait); waits != attempts {
		t.Errorf("controller sent %d triana.wait requests for %d attempts", waits, attempts)
	}
	for _, kind := range []string{jxtaserve.KindPipeBind, jxtaserve.KindPipeData, jxtaserve.KindPipeEOF} {
		if n, m := ctlTap.SentMsgs(kind), ctlTap.RecvMsgs(kind); n != 0 || m != 0 {
			t.Errorf("controller sent %d and received %d %s frames; the farm opened a pipe", n, m, kind)
		}
	}
	if n := ctlTap.SentMsgs(jxtaserve.KindChunkFetch); n != 0 {
		t.Errorf("controller sent %d chunk.fetch requests for by-value outputs", n)
	}
	if snap := tn.ctl.ChunkStore().Snapshot(); snap.Entries != 0 {
		t.Errorf("controller store holds %d entries after the farm", snap.Entries)
	}
	if n, b := ctlTap.SentMsgs("rpc/overlay.chunk.put"), ctlTap.Sent("rpc/overlay.chunk.put"); n != 0 || b != 0 {
		t.Errorf("controller sent %d chunk.put requests (%d bytes) for by-value datums", n, b)
	}
	for i, d := range tn.donors {
		if n := tn.taps[tn.peers[i].ID].SentMsgs(jxtaserve.KindChunkFetch); n != 0 {
			t.Errorf("donor %s sent %d chunk.fetch requests", tn.peers[i].ID, n)
		}
		if n := tn.taps[tn.peers[i].ID].Recv(jxtaserve.KindPipeBind); n != 0 {
			t.Errorf("donor %s was bound %d times; it opened an input pipe", tn.peers[i].ID, n)
		}
		if snap := d.ChunkStore().Snapshot(); snap.Entries != 0 || snap.Misses != 0 {
			t.Errorf("donor %s store: %d entries, %d misses; by-value items must not touch it",
				tn.peers[i].ID, snap.Entries, snap.Misses)
		}
	}
	if pinned != 0 {
		t.Errorf("controller held %d chunks mid-farm, want 0", pinned)
	}
}

// TestFarmMixedChunkPutsOnlyReferences: a farm whose chunks mix tiny
// and wide datums writes exactly its by-reference digests to the ring,
// one put each, and every datum comes back negated in order. The body
// is the stateless Negate, since AccumStat cannot mix spectrum widths.
func TestFarmMixedChunkPutsOnlyReferences(t *testing.T) {
	// Every other datum is widened past chunkstore.MaxInline.
	chunks := chaosChunks(chaosSeed, 3, 4)
	wide := bigChunks(chaosSeed, 3, 4, ladderBins)
	refs := make(map[string]bool)
	var want []types.Data
	for c := range chunks {
		for i := range chunks[c] {
			if i%2 == 1 {
				chunks[c][i] = wide[c][i]
				digest, _, err := chunkstore.DigestData(wide[c][i])
				if err != nil {
					t.Fatal(err)
				}
				refs[digest] = true
			}
			sp := chunks[c][i].(*types.Spectrum)
			neg := &types.Spectrum{Resolution: sp.Resolution, Amplitudes: make([]float64, len(sp.Amplitudes))}
			for b, a := range sp.Amplitudes {
				neg.Amplitudes[b] = -a
			}
			want = append(want, neg)
		}
	}

	n := simnet.New()
	tn := dataTierNet(t, n, "mx-", 1, 2)
	rep, err := tn.ctl.FarmChunks(context.Background(), chunks, FarmOptions{
		Body:  func() *taskgraph.Graph { return negateBody(t) },
		Peers: tn.peers,
	})
	if err != nil {
		t.Fatalf("farm failed: %v", err)
	}
	assertSameOutputs(t, rep.Outputs, want)

	if puts := tn.taps["mx-ctl"].SentMsgs("rpc/overlay.chunk.put"); puts != len(refs) {
		t.Errorf("controller sent %d chunk.put requests, want one per by-reference digest (%d)", puts, len(refs))
	}
	held := tn.supers[0].ChunkStore().Digests()
	for _, d := range held {
		if !refs[d] {
			t.Errorf("ring replica holds %.12s, which is no by-reference digest of the farm", d)
		}
	}
	if len(held) != len(refs) {
		t.Errorf("ring replica holds %d digests, want %d", len(held), len(refs))
	}
}

// TestInPlaceFarmUnitLeavesChunkStoreIntact: a farm part owns its
// decoded input, so Negate computes in place on it. The bytes it was
// decoded from stay in the chunk stores that resolved, replicated and
// served them, and no store may see the unit's writes: after a wide
// Quorum: 3 Negate farm, every entry in every store still hashes to its
// digest, and the outputs are the inputs negated.
func TestInPlaceFarmUnitLeavesChunkStoreIntact(t *testing.T) {
	chunks := bigChunks(chaosSeed, 3, 4, ladderBins)
	var want []types.Data
	for _, chunk := range chunks {
		for _, d := range chunk {
			neg := d.Clone().(*types.Spectrum)
			for b := range neg.Amplitudes {
				neg.Amplitudes[b] = -neg.Amplitudes[b]
			}
			want = append(want, neg)
		}
	}

	n := simnet.New()
	tn := dataTierNet(t, n, "ip-", 1, 3)
	rep, err := tn.ctl.FarmChunks(context.Background(), chunks, FarmOptions{
		Body:   func() *taskgraph.Graph { return negateBody(t) },
		Peers:  tn.peers,
		Quorum: 3,
	})
	if err != nil {
		t.Fatalf("farm failed: %v", err)
	}
	assertSameOutputs(t, rep.Outputs, want)

	stores := map[string]*chunkstore.Store{"ip-ctl": tn.ctl.ChunkStore(), "ip-super": tn.supers[0].ChunkStore()}
	for i, d := range tn.donors {
		stores[tn.peers[i].ID] = d.ChunkStore()
	}
	donorEntries := 0
	for name, store := range stores {
		for _, digest := range store.Digests() {
			data, ok := store.Get(digest)
			if !ok {
				continue // evicted since Digests listed it
			}
			if got := chunkstore.Digest(data); got != digest {
				t.Errorf("%s holds %.12s whose bytes now hash to %.12s", name, digest, got)
			}
			if name != "ip-ctl" && name != "ip-super" {
				donorEntries++
			}
		}
	}
	if donorEntries == 0 {
		t.Fatal("no donor store holds an entry; the test saw no resolved input")
	}
}

// negateBody is a one-task group body around the stateless Negate unit.
func negateBody(t *testing.T) *taskgraph.Graph {
	t.Helper()
	g := taskgraph.New("negatebody")
	task, err := units.NewTask("Negate", mathx.NameNegate)
	if err != nil {
		t.Fatal(err)
	}
	g.MustAdd(task)
	g.ExternalIn = []taskgraph.Endpoint{{Task: "Negate", Node: 0}}
	g.ExternalOut = []taskgraph.Endpoint{{Task: "Negate", Node: 0}}
	return g
}

// TestFarmReleaseDropsControllerInputs: once a 3-voter farm of wide
// datums returns, the controller's store holds none of the farm's input
// digests — the pins kept them servable while the farm ran; nothing
// reads them after — and caches nothing: the outputs it fetched to
// commit live in the report, not a second time in its LRU.
func TestFarmReleaseDropsControllerInputs(t *testing.T) {
	chunks := bigChunks(chaosSeed, 3, 4, ladderBins)
	n := simnet.New()
	tn := dataTierNet(t, n, "rl-", 1, 3)
	runChaosFarm(t, tn.ctl, tn.peers, chunks, FarmOptions{Quorum: 3})
	if got := tn.ctl.Resilience().Snapshot().QuorumFetches; got == 0 {
		t.Fatal("no output was fetched; the test cannot see a cached copy")
	}

	store := tn.ctl.ChunkStore()
	for _, chunk := range chunks {
		for _, d := range chunk {
			digest, _, err := chunkstore.DigestData(d)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := store.Get(digest); ok {
				t.Errorf("controller still holds input %.12s after the farm", digest)
			}
		}
	}
	if b := store.Bytes(); b != 0 {
		t.Errorf("controller's chunk cache holds %d bytes after the farm, want 0", b)
	}
}

// TestRestoredPinsReleaseWithResumedFarm: a controller crashes after a
// per-commit checkpoint, which holds the farm's pinned inputs. The
// restarted daemon restores them unpinned, the resumed farm pins and
// releases its own, and once it completes nothing is left pinned.
func TestRestoredPinsReleaseWithResumedFarm(t *testing.T) {
	chunks := bigChunks(chaosSeed, 4, 3, ladderBins)
	stateDir, crashDir := t.TempDir(), t.TempDir()
	opts := Options{
		Resilience: chaosResilience(), StateDir: stateDir, CheckpointInterval: -1,
	}
	incarnation := func(n *simnet.Network, opts Options) (*Service, []PeerRef) {
		ctl := newService(t, n.Peer("rp-ctl"), "rp-ctl", opts)
		var peers []PeerRef
		for _, label := range []string{"rp-w1", "rp-w2"} {
			w := newService(t, n.Peer(label), label, Options{})
			peers = append(peers, PeerRef{ID: label, Addr: w.Addr()})
		}
		return ctl, peers
	}
	farm := func(ctx context.Context, ctl *Service, peers []PeerRef, after func(int)) (*FarmReport, error) {
		return ctl.FarmChunks(ctx, chunks, FarmOptions{
			Body:       func() *taskgraph.Graph { return accumBody(t) },
			Peers:      peers,
			ResumeKey:  "rp-farm",
			AfterChunk: after,
		})
	}

	// Incarnation 1 dies right after chunk 1's checkpoint: the state
	// file as it stood then is what a kill would leave on disk.
	ctl1, peers1 := incarnation(simnet.New(), opts)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if _, err := farm(ctx, ctl1, peers1, func(c int) {
		if c != 1 {
			return
		}
		b, err := os.ReadFile(filepath.Join(stateDir, stateFileName))
		if err == nil {
			err = os.WriteFile(filepath.Join(crashDir, stateFileName), b, 0o600)
		}
		if err != nil {
			t.Error(err)
		}
		cancel()
	}); err == nil {
		t.Fatal("crashed incarnation reported a completed farm")
	}
	ctl1.Close()

	opts.StateDir = crashDir
	ctl2, peers2 := incarnation(simnet.New(), opts)
	if ctl2.ChunkStore().Len() == 0 {
		t.Fatal("the checkpoint restored no chunks; the test cannot see a leaked pin")
	}
	rep, err := farm(context.Background(), ctl2, peers2, nil)
	if err != nil {
		t.Fatalf("resumed farm failed: %v", err)
	}
	if rep.ResumedChunks != 2 {
		t.Fatalf("resumed %d chunks from the journal, want 2", rep.ResumedChunks)
	}
	if b := ctl2.ChunkStore().ExportPinned(); len(b) != 1 || b[0] != 0 {
		t.Errorf("after the resumed farm completed the controller still pins chunks (%d-byte export, %d resident)",
			len(b), ctl2.ChunkStore().Len())
	}
}

// fetchRefuser is a donor transport on which no chunk.fetch can be
// sent, so the donor resolves no by-reference manifest item.
type fetchRefuser struct{ jxtaserve.Transport }

func (f fetchRefuser) Dial(addr string) (jxtaserve.Conn, error) {
	c, err := f.Transport.Dial(addr)
	if err != nil {
		return nil, err
	}
	return fetchRefuserConn{c}, nil
}

type fetchRefuserConn struct{ jxtaserve.Conn }

func (c fetchRefuserConn) Send(m *jxtaserve.Message) error {
	if m.Kind == jxtaserve.KindChunkFetch {
		return errors.New("chunk.fetch refused")
	}
	return c.Conn.Send(m)
}

// TestUnresolvableManifestFailsOnWait: a donor that took a manifest it
// cannot resolve ends its job with the resolve error, and the wait
// reply carries it (not a short result). In a farm, that attempt fails
// and the chunk is redespatched to a donor that can.
func TestUnresolvableManifestFailsOnWait(t *testing.T) {
	n := simnet.New()
	var mu sync.Mutex
	var logs []string
	ctl := newService(t, n.Peer("um-ctl"), "um-ctl", Options{
		Resilience: chaosResilience(),
		Logf: func(format string, args ...any) {
			mu.Lock()
			logs = append(logs, fmt.Sprintf(format, args...))
			mu.Unlock()
		},
	})
	w1 := newService(t, fetchRefuser{n.Peer("um-w1")}, "um-w1", Options{})
	w2 := newService(t, n.Peer("um-w2"), "um-w2", Options{})
	peers := []PeerRef{{ID: "um-w1", Addr: w1.Addr()}, {ID: "um-w2", Addr: w2.Addr()}}

	// One despatch, by hand: the manifest names a digest nobody holds.
	digest, _, err := chunkstore.DigestData(bigChunks(chaosSeed, 1, 1, ladderBins)[0][0])
	if err != nil {
		t.Fatal(err)
	}
	job, err := ctl.Despatch(RemotePart{
		Peer:       peers[1],
		Body:       accumBody(t),
		Iterations: 1,
		manifest: chunkstore.EncodeManifest(&chunkstore.Manifest{
			Origin: ctl.Addr(), Items: []chunkstore.Item{{Digest: digest}},
		}),
	}, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(job.InAds) != 0 {
		t.Fatalf("donor opened %d input pipes for a manifest", len(job.InAds))
	}
	if _, err := ctl.WaitRemote(job); err == nil || !strings.Contains(err.Error(), chunkstore.ErrNotFound.Error()) {
		t.Fatalf("wait on an unresolvable manifest: err = %v, want the resolve error (%v)", err, chunkstore.ErrNotFound)
	}

	// A farm: w1 ranks first and cannot fetch, so its attempt fails
	// with the resolve error and w2 commits the chunk.
	chunks := bigChunks(chaosSeed, 1, 4, ladderBins)
	want := faultFreeBaseline(t, chunks)
	rep := runChaosFarm(t, ctl, peers, chunks, FarmOptions{})
	assertSameOutputs(t, rep.Outputs, want)
	if rep.Redespatches != 1 || rep.PeerChunks["um-w2"] != 1 {
		t.Errorf("redespatches = %d, chunks by peer = %v; want w1's attempt failed and w2's committed",
			rep.Redespatches, rep.PeerChunks)
	}
	mu.Lock()
	defer mu.Unlock()
	failed := false
	for _, l := range logs {
		if strings.Contains(l, "attempt") && strings.Contains(l, "um-w1 failed") {
			failed = true
			if !strings.Contains(l, chunkstore.ErrNotFound.Error()) {
				t.Errorf("w1's attempt failed for another reason: %s", l)
			}
		}
	}
	if !failed {
		t.Errorf("no failed attempt on um-w1 was logged: %q", logs)
	}
}

// TestManifestNeedsOneInputBody: a triana.run that carries a manifest
// for a body without exactly one input and one output is refused, not
// run with the manifest dropped or an output nowhere to go.
func TestManifestNeedsOneInputBody(t *testing.T) {
	n := simnet.New()
	ctl := newService(t, n.Peer("mi-ctl"), "mi-ctl", Options{Resilience: chaosResilience()})
	w := newService(t, n.Peer("mi-w1"), "mi-w1", Options{})
	noInput, noOutput := accumBody(t), accumBody(t)
	noInput.ExternalIn = nil
	noOutput.ExternalOut = nil
	for name, body := range map[string]*taskgraph.Graph{"0-input": noInput, "0-output": noOutput} {
		_, err := ctl.Despatch(RemotePart{
			Peer:       PeerRef{ID: "mi-w1", Addr: w.Addr()},
			Body:       body,
			Iterations: 1,
			manifest:   chunkstore.EncodeManifest(&chunkstore.Manifest{Origin: ctl.Addr()}),
		}, "")
		if err == nil || !strings.Contains(err.Error(), "one-input body with one output") {
			t.Fatalf("manifest for a %s body: err = %v, want the refusal", name, err)
		}
	}
	if w.liveJobs() != 0 {
		t.Errorf("donor runs %d jobs after refusing the requests", w.liveJobs())
	}
}
