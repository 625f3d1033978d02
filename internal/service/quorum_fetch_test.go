package service

// The quorum output path: every voter's wait reply carries its result
// list, wide outputs as content addresses, and a majority commits by
// fetching those outputs from the agreeing voters.

import (
	"context"
	"strings"
	"sync"
	"testing"

	"consumergrid/internal/chunkstore"
	"consumergrid/internal/jxtaserve"
	"consumergrid/internal/metrics"
	"consumergrid/internal/simnet"
	"consumergrid/internal/taskgraph"
	"consumergrid/internal/types"
)

// TestQuorumByzantineVoterCommitsByFetch: one of the three voters, the
// first-ranked, corrupts every result it returns. Its outputs are wide,
// so its result list is content addresses, and the flipped tail byte
// lands in the last of them. Chunk 0's first electorate is the
// corrupter and one honest voter; their split widens to the third, and
// the two honest voters commit by fetching their outputs. The
// corrupter is outvoted there and ranked out of chunk 1, whose two
// honest voters agree at once.
func TestQuorumByzantineVoterCommitsByFetch(t *testing.T) {
	const nChunks, perChunk = 2, 4
	chunks := bigChunks(chaosSeed, nChunks, perChunk, ladderBins)
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
		t.Errorf("corrupting voter committed %d chunks", rep.PeerChunks["bc-w1"])
	}
	snap := tn.ctl.Resilience().Snapshot()
	if snap.QuorumFetches != nChunks*perChunk {
		t.Errorf("quorum fetches = %d, want %d (every output, fetched once from an agreeing voter)",
			snap.QuorumFetches, nChunks*perChunk)
	}
	series := metrics.Default().Counter(metrics.Series("service_quorum_fetches_total", "peer", "bc-ctl")).Value()
	if series != snap.QuorumFetches {
		t.Errorf("service_quorum_fetches_total = %d, snapshot says %d", series, snap.QuorumFetches)
	}
	if rep.QuorumDisagreements != 1 || rep.Redespatches != 1 {
		t.Errorf("disagreements = %d, redespatches = %d, want 1 and 1: the corrupter, in chunk 0 only",
			rep.QuorumDisagreements, rep.Redespatches)
	}
}

// TestQuorumFarmOnSmallDonorCaches: donors whose chunk stores are
// small beside the outputs still commit every chunk, with no
// redespatch. The first two ranked donors hold what fits under half
// their budget and list the rest by value; their held outputs survive
// the cache traffic around them until the commit fetches them. The
// third's budget is below one output, so it lists every output by
// value, and its ballots agree with the others'. Once the farm returns,
// the controller has released every hold.
func TestQuorumFarmOnSmallDonorCaches(t *testing.T) {
	const nChunks, perChunk = 2, 4
	chunks := bigChunks(chaosSeed, nChunks, perChunk, 4*ladderBins)
	want := faultFreeBaseline(t, chunks)
	wide, err := types.Marshal(chunks[0][0])
	if err != nil {
		t.Fatal(err)
	}
	// Half of 4 outputs' worth holds two of a chunk's four outputs.
	budgets := map[string]int64{"sc-w1": 4 * int64(len(wide)), "sc-w2": 4 * int64(len(wide)), "sc-w3": int64(len(wide))}

	n := simnet.New()
	ctl := newService(t, n.Peer("sc-ctl"), "sc-ctl", Options{Resilience: chaosResilience()})
	var donors []*Service
	var peers []PeerRef
	for _, label := range []string{"sc-w1", "sc-w2", "sc-w3"} {
		w := newService(t, n.Peer(label), label, Options{DataTier: DataTierOptions{CacheBytes: budgets[label]}})
		donors = append(donors, w)
		peers = append(peers, PeerRef{ID: label, Addr: w.Addr()})
	}
	rep := runChaosFarm(t, ctl, peers, chunks, FarmOptions{Quorum: 3})

	assertSameOutputs(t, rep.Outputs, want)
	if rep.Redespatches != 0 || rep.QuorumDisagreements != 0 {
		t.Errorf("redespatches %d, disagreements %d, want none", rep.Redespatches, rep.QuorumDisagreements)
	}
	// A chunk whose winner held half its outputs fetches that half. The
	// first chunk's winner is the first-listed voter, which has no
	// history to be outranked on; later winners go by health rank.
	if got := ctl.Resilience().Snapshot().QuorumFetches; got < 2 || got > nChunks*2 || got%2 != 0 {
		t.Errorf("quorum fetches = %d, want 2 for each chunk a holding voter won, the first at least", got)
	}
	for _, w := range donors {
		if u := w.uncollected(); u != 0 {
			t.Errorf("%s still holds the outputs of %d jobs after the farm", w.PeerID(), u)
		}
		if b, budget := w.ChunkStore().Bytes(), w.ChunkStore().Budget(); b > budget {
			t.Errorf("%s store charges %d bytes over its %d budget", w.PeerID(), b, budget)
		}
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

// TestQuorumFetchFailureWidens: the corrupter votes first; the two
// honest voters agree, and each is killed the moment its ballot is in.
// Their outputs are wide, so they were held in the voters' chunk stores
// and cannot be fetched: their ballots fail — with no byzantine penalty —
// and the chunk tops up with fresh voters. Either those commit the
// clean result or the chunk ends in the no-majority error.
func TestQuorumFetchFailureWidens(t *testing.T) {
	const perChunk = 4
	chunks := bigChunks(chaosSeed, 1, perChunk, ladderBins)
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
		Quorum: 3,
		Body:   func() *taskgraph.Graph { return accumBody(t) },
		Peers:  peers,
	})

	mu.Lock()
	bothKilled := killed["ff-w2"] && killed["ff-w3"]
	mu.Unlock()
	if !bothKilled {
		t.Fatal("the honest voters were not killed after voting")
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
// each output comes home once, as the chunk.data answering the one
// fetch its commit makes; the three wait replies carry only addresses.
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

	var outBytes int64
	for _, d := range rep.Outputs {
		p, err := types.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		outBytes += int64(len(p))
	}
	within(t, "controller-bound chunk.data", ctlTap.Recv(jxtaserve.KindChunkData), outBytes)
	if got := tn.ctl.Resilience().Snapshot().QuorumFetches; got != int64(len(rep.Outputs)) {
		t.Errorf("quorum fetches = %d on a clean run, want one per output (%d)", got, len(rep.Outputs))
	}
	if n := ctlTap.RecvMsgs(jxtaserve.KindPipeData); n != 0 {
		t.Errorf("controller received %d pipe.data frames; outputs ride the wait reply", n)
	}
	t.Logf("inputs %d B, manifests %d B, egress %d B; outputs %d B, chunk.data in %d B, rpc.reply in %d B",
		inBytes, manifests, egress, outBytes, ctlTap.Recv(jxtaserve.KindChunkData), ctlTap.Recv(jxtaserve.KindRPCReply))
}

// within fails the test unless got is within 5% of want.
func within(t *testing.T, what string, got, want int64) {
	t.Helper()
	if d := got - want; 20*d > want || 20*d < -want {
		t.Errorf("%s = %d B, want %d B ± 5%%", what, got, want)
	}
}
