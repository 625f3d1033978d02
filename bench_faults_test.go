package consumergrid_test

// BenchmarkDespatchUnderFaults measures the resilient farm loop under
// each injected fault class, so the perf trajectory captures what
// retries, re-despatches and wasted work cost relative to a clean
// network. Recovery work is reported as custom metrics per op.

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"consumergrid/internal/service"
	"consumergrid/internal/simnet"
	"consumergrid/internal/taskgraph"
	"consumergrid/internal/types"
	"consumergrid/internal/units"
	"consumergrid/internal/units/signal"
)

// benchAccumBody builds the one-task stateful farm body.
func benchAccumBody(b *testing.B) *taskgraph.Graph {
	b.Helper()
	g := taskgraph.New("benchaccum")
	task, err := units.NewTask("Accum", signal.NameAccumStat)
	if err != nil {
		b.Fatal(err)
	}
	g.MustAdd(task)
	g.ExternalIn = []taskgraph.Endpoint{{Task: "Accum", Node: 0}}
	g.ExternalOut = []taskgraph.Endpoint{{Task: "Accum", Node: 0}}
	return g
}

func benchChunks(seed int64, nChunks, perChunk int) [][]types.Data {
	rng := rand.New(rand.NewSource(seed))
	chunks := make([][]types.Data, nChunks)
	for c := range chunks {
		for i := 0; i < perChunk; i++ {
			v := rng.Float64() * 100
			chunks[c] = append(chunks[c], &types.Spectrum{
				Resolution: 1, Amplitudes: []float64{v, 2 * v},
			})
		}
	}
	return chunks
}

func BenchmarkDespatchUnderFaults(b *testing.B) {
	faults := []struct {
		name  string
		fault simnet.LinkFaults
	}{
		{"clean", simnet.LinkFaults{}},
		{"drop-every-13", simnet.LinkFaults{DropEvery: 13}},
		{"jitter-200us", simnet.LinkFaults{Latency: 100 * time.Microsecond, Jitter: 200 * time.Microsecond}},
	}
	// Every peer rides the multiplexed wire: one shared connection per
	// peer pair, faults landing per stream.
	for _, tc := range faults {
		b.Run(tc.name, func(b *testing.B) {
			n := simnet.New()
			n.FaultSeed(1)
			newSvc := func(label string) *service.Service {
				s, err := service.New(service.Options{
					PeerID: label, Transport: n.Peer(label),
					Resilience: service.ResilienceOptions{
						MaxAttempts: 4,
						BaseDelay:   2 * time.Millisecond,
						MaxDelay:    10 * time.Millisecond,
					},
				})
				if err != nil {
					b.Fatal(err)
				}
				return s
			}
			ctl := newSvc("ctl")
			defer ctl.Close()
			var peers []service.PeerRef
			for _, label := range []string{"w1", "w2", "w3"} {
				w := newSvc(label)
				defer w.Close()
				peers = append(peers, service.PeerRef{ID: label, Addr: w.Addr()})
			}
			n.SetLinkFaults("*", tc.fault)
			chunks := benchChunks(7, 3, 4)

			b.ReportAllocs()
			var redespatches, wasted int64
			for i := 0; i < b.N; i++ {
				rep, err := ctl.FarmChunks(context.Background(), chunks, service.FarmOptions{
					Body:          func() *taskgraph.Graph { return benchAccumBody(b) },
					Peers:         peers,
					ChunkAttempts: 24,
					Seed:          int64(i),
				})
				if err != nil {
					b.Fatal(err)
				}
				if len(rep.Outputs) != 12 {
					b.Fatalf("farm produced %d outputs, want 12", len(rep.Outputs))
				}
				redespatches += rep.Redespatches
				wasted += rep.WastedOutputs
			}
			b.ReportMetric(float64(redespatches)/float64(b.N), "redespatches/op")
			b.ReportMetric(float64(wasted)/float64(b.N), "wasted-items/op")
		})
	}
}
