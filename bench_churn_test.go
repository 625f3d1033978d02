package consumergrid_test

// BenchmarkFarmUnderChurn measures farm makespan with a persistent
// straggler in the worker pool, speculation off vs on. The speculative
// backup should cut the makespan (the slow peer's chunks are raced onto
// a healthy peer) at a bounded duplicated-work cost, reported via the
// speculation counters per op.

import (
	"context"
	"testing"
	"time"

	"consumergrid/internal/service"
	"consumergrid/internal/simnet"
	"consumergrid/internal/taskgraph"
)

func BenchmarkFarmUnderChurn(b *testing.B) {
	for _, spec := range []struct {
		name string
		on   bool
	}{
		{"speculation-off", false},
		{"speculation-on", true},
	} {
		b.Run(spec.name, func(b *testing.B) {
			chunks := benchChunks(7, 4, 3)
			b.ReportAllocs()
			var launches, wins, waste int64
			for i := 0; i < b.N; i++ {
				// Fresh network per iteration so peer-health history from
				// one run cannot bias the next run's selection.
				n := simnet.New()
				n.FaultSeed(int64(i + 1))
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
				var peers []service.PeerRef
				var workers []*service.Service
				for _, label := range []string{"w1", "w2", "w3"} {
					w := newSvc(label)
					workers = append(workers, w)
					peers = append(peers, service.PeerRef{ID: label, Addr: w.Addr()})
				}
				// w1 is the straggler: every message on its links crawls,
				// so chunks landing there dominate the makespan unless a
				// backup attempt rescues them.
				n.SetLinkFaults("w1", simnet.LinkFaults{Latency: 15 * time.Millisecond})

				rep, err := ctl.FarmChunks(context.Background(), chunks, service.FarmOptions{
					Body:           func() *taskgraph.Graph { return benchAccumBody(b) },
					Peers:          peers,
					Speculate:      spec.on,
					SpeculateAfter: 30 * time.Millisecond,
				})
				if err != nil {
					b.Fatal(err)
				}
				if len(rep.Outputs) != 12 {
					b.Fatalf("farm produced %d outputs, want 12", len(rep.Outputs))
				}
				launches += rep.SpeculationLaunches
				wins += rep.SpeculationWins
				waste += rep.SpeculationWaste
				for _, w := range workers {
					w.Close()
				}
				ctl.Close()
			}
			b.ReportMetric(float64(launches)/float64(b.N), "spec-launches/op")
			b.ReportMetric(float64(wins)/float64(b.N), "spec-wins/op")
			b.ReportMetric(float64(waste)/float64(b.N), "spec-waste/op")
		})
	}
}
