package consumergrid_test

// Controller-egress bench for the content-addressed data tier: a
// quorum farm whose inputs travel as chunk manifests resolved through
// donor caches and the super-peer ring, and whose outputs come home in
// every voter's wait reply as content addresses, each committed output
// then fetched once. The egress-B/op custom metric is the controller's
// data-plane bytes per farm — the number the tier exists to cut,
// tracked by the benchreg snapshots — and ingress-B/op is the
// chunk.data bytes it received: the committed outputs it fetched. A
// clean quorum-3 chunk launches a majority, two voters, so in the
// analytic model streaming every voter its chunk costs 2 × Σ input
// bytes per farm (~99.1k B here) each way; the tier pays one pass of
// the inputs plus the runs' manifests out (~51.4k B) and one pass of
// the outputs back. The result lists and carried state ride the wait
// replies and are not counted.

import (
	"context"
	"math/rand"
	"testing"

	"consumergrid/internal/jxtaserve"
	"consumergrid/internal/service"
	"consumergrid/internal/simnet"
	"consumergrid/internal/taskgraph"
	"consumergrid/internal/types"
	"consumergrid/internal/units"
	"consumergrid/internal/units/signal"
)

func benchService(b *testing.B, n *simnet.Network, id string, opts service.Options) *service.Service {
	b.Helper()
	opts.PeerID = id
	if opts.Transport == nil {
		opts.Transport = n.Peer(id)
	}
	s, err := service.New(opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	return s
}

// egressBody builds the one-unit accumulator farm body once and clones
// it per attempt.
func egressBody(b *testing.B) func() *taskgraph.Graph {
	b.Helper()
	g := taskgraph.New("egressbody")
	task, err := units.NewTask("Accum", signal.NameAccumStat)
	if err != nil {
		b.Fatal(err)
	}
	g.MustAdd(task)
	g.ExternalIn = []taskgraph.Endpoint{{Task: "Accum", Node: 0}}
	g.ExternalOut = []taskgraph.Endpoint{{Task: "Accum", Node: 0}}
	return func() *taskgraph.Graph { return g.Clone() }
}

// egressChunks derives 3 chunks x 4 spectra of 512 bins (~4 KiB of
// payload per datum) so manifest overhead is noise against data bytes.
func egressChunks() [][]types.Data {
	rng := rand.New(rand.NewSource(42))
	chunks := make([][]types.Data, 3)
	for c := range chunks {
		for i := 0; i < 4; i++ {
			amps := make([]float64, 512)
			for j := range amps {
				amps[j] = rng.Float64()*100 + float64(j)
			}
			chunks[c] = append(chunks[c], &types.Spectrum{Resolution: 1, Amplitudes: amps})
		}
	}
	return chunks
}

func BenchmarkFarmEgressDataTier(b *testing.B) {
	const prefix = "ebd-"
	n := simnet.New()
	tap := simnet.NewTap(n.Peer(prefix + "ctl"))
	super := benchService(b, n, prefix+"super", service.Options{
		Overlay: &service.OverlayOptions{SuperPeer: true, Replication: 1, SweepInterval: -1},
	})
	ctl := benchService(b, n, prefix+"ctl", service.Options{
		Transport: tap,
		Overlay:   &service.OverlayOptions{SuperPeers: []string{super.Addr()}, Replication: 1},
	})
	var peers []service.PeerRef
	for _, w := range []string{"w1", "w2", "w3"} {
		s := benchService(b, n, prefix+w, service.Options{})
		peers = append(peers, service.PeerRef{ID: prefix + w, Addr: s.Addr()})
	}

	body := egressBody(b)
	chunks := egressChunks()
	b.ReportAllocs()
	b.ResetTimer()
	var egress int64
	ingressBefore := tap.Recv(jxtaserve.KindChunkData)
	for i := 0; i < b.N; i++ {
		before := ctl.Resilience().Snapshot().FarmEgressBytes
		rep, err := ctl.FarmChunks(context.Background(), chunks, service.FarmOptions{
			Body:   body,
			Peers:  peers,
			Quorum: 3,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Outputs) != len(chunks)*4 {
			b.Fatalf("farm committed %d outputs, want %d", len(rep.Outputs), len(chunks)*4)
		}
		egress += ctl.Resilience().Snapshot().FarmEgressBytes - before
	}
	b.ReportMetric(float64(egress)/float64(b.N), "egress-B/op")
	b.ReportMetric(float64(tap.Recv(jxtaserve.KindChunkData)-ingressBefore)/float64(b.N), "ingress-B/op")
}
