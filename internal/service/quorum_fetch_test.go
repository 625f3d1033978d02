package service

// The quorum output path with the data tier on: one carrier streams a
// chunk's outputs home, the other voters send content addresses, and a
// majority no carrier agreed with is committed by fetching the outputs
// from the agreeing voters.

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"consumergrid/internal/chunkstore"
	"consumergrid/internal/jxtaserve"
	"consumergrid/internal/metrics"
	"consumergrid/internal/simnet"
	"consumergrid/internal/taskgraph"
	"consumergrid/internal/types"
)

// TestQuorumByzantineCarrierCommitsByFetch: the first-ranked voter,
// and so chunk 0's carrier, corrupts every pipe payload it sends. The
// two address voters agree, so chunk 0 commits by fetching their
// outputs; later chunks rank the corrupter last, where it votes by
// address and is outvoted by a clean carrier.
func TestQuorumByzantineCarrierCommitsByFetch(t *testing.T) {
	const nChunks, perChunk = 2, 4
	chunks := chaosChunks(chaosSeed, nChunks, perChunk)
	want := faultFreeBaseline(t, chunks)

	n := simnet.New()
	tn := dataTierNet(t, n, "bc-", 1, 3)
	n.SetLinkFaults("bc-w1", simnet.LinkFaults{CorruptEvery: 1})
	rep := runChaosFarm(t, tn.ctl, tn.peers, chunks, FarmOptions{Quorum: 3})

	if n.Corrupted() == 0 {
		t.Fatal("byzantine fault injection never fired")
	}
	assertSameOutputs(t, rep.Outputs, want)
	if rep.PeerChunks["bc-w1"] != 0 {
		t.Errorf("corrupting carrier committed %d chunks", rep.PeerChunks["bc-w1"])
	}
	snap := tn.ctl.Resilience().Snapshot()
	if snap.QuorumFetches != perChunk {
		t.Errorf("quorum fetches = %d, want %d (chunk 0's outputs, fetched from its address voters)",
			snap.QuorumFetches, perChunk)
	}
	series := metrics.Default().Counter(metrics.Series("service_quorum_fetches_total", "peer", "bc-ctl")).Value()
	if series != snap.QuorumFetches {
		t.Errorf("service_quorum_fetches_total = %d, snapshot says %d", series, snap.QuorumFetches)
	}
	if rep.QuorumDisagreements != nChunks {
		t.Errorf("disagreements = %d, want one per chunk from the corrupter", rep.QuorumDisagreements)
	}
}

// waitReplyHook wraps the controller's transport and runs onWait,
// synchronously, as each triana.wait reply arrives — after the voter's
// outputs and state are in, before its ballot is counted.
type waitReplyHook struct {
	jxtaserve.Transport
	onWait func(addr string)
}

func (h *waitReplyHook) Dial(addr string) (jxtaserve.Conn, error) {
	c, err := h.Transport.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &waitReplyConn{Conn: c, addr: addr, hook: h}, nil
}

type waitReplyConn struct {
	jxtaserve.Conn
	addr    string
	hook    *waitReplyHook
	waiting bool
}

func (c *waitReplyConn) Send(m *jxtaserve.Message) error {
	if m.Kind == jxtaserve.KindRPC {
		c.waiting = m.Header("method") == MethodWait
	}
	return c.Conn.Send(m)
}

func (c *waitReplyConn) Recv() (*jxtaserve.Message, error) {
	m, err := c.Conn.Recv()
	if err == nil && c.waiting && m.Kind == jxtaserve.KindRPCReply {
		c.hook.onWait(c.addr)
	}
	return m, err
}

// TestQuorumFetchFailureWidens: the corrupter carries; the two address
// voters agree, and each is killed the moment its ballot is in. Their
// outputs cannot be fetched, so their ballots fail — with no byzantine
// penalty — and the chunk tops up with fresh voters. Either those
// commit the clean result or the chunk ends in the no-majority error.
func TestQuorumFetchFailureWidens(t *testing.T) {
	const perChunk = 4
	chunks := chaosChunks(chaosSeed, 1, perChunk)
	want := faultFreeBaseline(t, chunks)

	n := simnet.New()
	labels := map[string]string{} // addr -> donor label
	var mu sync.Mutex
	killed := map[string]bool{}
	hook := &waitReplyHook{Transport: n.Peer("ff-ctl"), onWait: func(addr string) {
		mu.Lock()
		defer mu.Unlock()
		if l := labels[addr]; (l == "ff-w2" || l == "ff-w3") && !killed[l] {
			killed[l] = true
			n.Kill(l)
		}
	}}
	ctl := newService(t, hook, "ff-ctl", Options{
		Resilience: chaosResilience(),
	})
	var peers []PeerRef
	for _, label := range []string{"ff-w1", "ff-w2", "ff-w3", "ff-w4", "ff-w5"} {
		w := newService(t, n.Peer(label), label, Options{})
		labels[w.Addr()] = label
		peers = append(peers, PeerRef{ID: label, Addr: w.Addr()})
	}
	n.SetLinkFaults("ff-w1", simnet.LinkFaults{CorruptEvery: 1})

	rep, err := ctl.FarmChunks(context.Background(), chunks, FarmOptions{
		Quorum:         3,
		Body:           func() *taskgraph.Graph { return accumBody(t) },
		Peers:          peers,
		AttemptTimeout: 10 * time.Second,
	})

	mu.Lock()
	bothKilled := killed["ff-w2"] && killed["ff-w3"]
	mu.Unlock()
	if !bothKilled {
		t.Fatal("the address voters were not killed after voting")
	}
	switch {
	case err == nil:
		assertSameOutputs(t, rep.Outputs, want)
		if rep.PeerChunks["ff-w4"]+rep.PeerChunks["ff-w5"] != 1 {
			t.Errorf("chunk committed by %v, want a fresh voter", rep.PeerChunks)
		}
		if got := ctl.Resilience().Snapshot().QuorumFetches; got != perChunk {
			t.Errorf("quorum fetches = %d, want %d from the fresh voters", got, perChunk)
		}
		for _, id := range []string{"ff-w2", "ff-w3"} {
			if ctl.Health().Suspect(id) {
				t.Errorf("%s is suspect after one failed fetch: its ballot took a byzantine penalty", id)
			}
		}
	case strings.Contains(err.Error(), "results agree"):
		t.Logf("chunk ended in the no-majority error: %v", err)
	default:
		t.Fatalf("farm failed outside the widening rules: %v", err)
	}
	// Only the corrupter lost a vote; the killed voters' failed ballots
	// carry no byzantine penalty.
	if rep.QuorumDisagreements != 1 {
		t.Errorf("disagreements = %d, want 1 (the corrupter alone)", rep.QuorumDisagreements)
	}
	if rep.PeerChunks["ff-w1"] != 0 {
		t.Errorf("corrupter committed %d chunks", rep.PeerChunks["ff-w1"])
	}
}

// TestQuorumFarmMovesEachByteOnce is the wire accounting of a clean
// Quorum: 3 farm over an R=2 ring: every input crosses the controller's
// link once (one ring copy; the controller's pin is the other), and
// each output comes home once, the other two voters sending addresses.
func TestQuorumFarmMovesEachByteOnce(t *testing.T) {
	chunks := bigChunks(chaosSeed, 3, 4, 2048)
	want := faultFreeBaseline(t, chunks)

	n := simnet.New()
	tn := dataTierNet(t, n, "mo-", 2, 3)
	rep := runChaosFarm(t, tn.ctl, tn.peers, chunks, FarmOptions{Quorum: 3})
	assertSameOutputs(t, rep.Outputs, want)
	ctlTap := tn.taps["mo-ctl"]

	var inBytes int64
	for _, chunk := range chunks {
		for _, d := range chunk {
			_, p, err := chunkstore.DigestData(d)
			if err != nil {
				t.Fatal(err)
			}
			inBytes += int64(len(p))
		}
	}
	_, manifests := tn.runManifests.read() // they ride triana.run
	wantEgress := inBytes + manifests
	egress := ctlTap.Sent("rpc/overlay.chunk.put") + manifests +
		ctlTap.Sent(jxtaserve.KindChunkData) + ctlTap.Sent(jxtaserve.KindPipeData)
	within(t, "controller egress on the wire", egress, wantEgress)
	within(t, "FarmEgressBytes", tn.ctl.Resilience().Snapshot().FarmEgressBytes, wantEgress)

	var outBytes, itemBytes int64
	for _, d := range rep.Outputs {
		p, err := types.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		outBytes += int64(len(p))
		ip, err := types.Marshal(addressItem(addressOf(p)))
		if err != nil {
			t.Fatal(err)
		}
		itemBytes += 2 * int64(len(ip)) // two address voters per output
	}
	within(t, "controller-bound pipe.data", ctlTap.Recv(jxtaserve.KindPipeData), outBytes+itemBytes)
	if got := tn.ctl.Resilience().Snapshot().QuorumFetches; got != 0 {
		t.Errorf("quorum fetches = %d on a clean run", got)
	}
	t.Logf("inputs %d B, manifests %d B, egress %d B; outputs %d B + address items %d B, pipe.data in %d B",
		inBytes, manifests, egress, outBytes, itemBytes, ctlTap.Recv(jxtaserve.KindPipeData))
}

// within fails the test unless got is within 5% of want.
func within(t *testing.T, what string, got, want int64) {
	t.Helper()
	if d := got - want; 20*d > want || 20*d < -want {
		t.Errorf("%s = %d B, want %d B ± 5%%", what, got, want)
	}
}
