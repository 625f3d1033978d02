// ConsumerGrid: the full enrolment story over real TCP sockets, end to
// end — the closest runnable analogue of the paper's deployment model:
//
//  1. a super-peer boots (the bootstrap node: the paper's rendezvous,
//     as a one-member overlay ring);
//
//  2. donor peers "install the daemon" (strict mobile-code mode: they
//     hold no application modules) and enrol by advertising CPU/RAM
//     through it;
//
//  3. a controller discovers peers by capability, plans the Figure 1
//     group with the parallel policy, and despatches it;
//
//  4. donors fetch the module bundles on demand from the controller
//     (the Java-class download of §3), execute in their sandboxes, and
//     stream results back over named pipes.
//
//     go run ./examples/consumergrid
package main

import (
	"context"
	"fmt"
	"log"

	"consumergrid/internal/controller"
	"consumergrid/internal/core"
	"consumergrid/internal/jxtaserve"
	"consumergrid/internal/sandbox"
	"consumergrid/internal/service"
	"consumergrid/internal/types"
	"consumergrid/internal/units/unitio"
)

func main() {
	// Donated machines differ: a fast desktop, a mid box, a weak laptop
	// with a tight chunk-cache budget, module bundles included (the
	// handheld model).
	donors := []service.Options{
		{CPUMHz: 2600, FreeRAMMB: 1024, Sandbox: sandbox.AllowCompute(1 << 30)},
		{CPUMHz: 1800, FreeRAMMB: 512, Sandbox: sandbox.AllowCompute(512 << 20)},
		{CPUMHz: 900, FreeRAMMB: 128, Sandbox: sandbox.AllowCompute(128 << 20),
			DataTier: service.DataTierOptions{CacheBytes: 64 << 10}},
	}
	grid, err := core.NewGrid(core.GridOptions{
		Transport:   jxtaserve.TCP{},
		Peers:       len(donors),
		PeerOptions: func(i int) service.Options { return donors[i] },
		RequireCode: true, // strict mobile-code semantics
	})
	if err != nil {
		log.Fatal(err)
	}
	defer grid.Close()

	fmt.Println("enrolled donor peers (over TCP):")
	for i, w := range grid.Workers {
		fmt.Printf("  %-10s %s  %4d MHz %5d MB\n",
			w.PeerID(), w.Addr(), donors[i].CPUMHz, donors[i].FreeRAMMB)
	}

	// Discovery by capability: only donors with >= 1000 MHz qualify.
	peers, err := grid.Controller.DiscoverPeers(controller.RunOptions{MinCPUMHz: 1000})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndiscovery with cpuMHz >= 1000 finds %d of %d peers:\n", len(peers), len(donors))
	for _, p := range peers {
		fmt.Printf("  %s at %s\n", p.ID, p.Addr)
	}

	// Run Figure 1 with the farm spread over the qualifying donors.
	rep, err := grid.Run(context.Background(),
		core.Figure1Workflow(core.Figure1Options{Samples: 1024, NoiseSigma: 5}),
		controller.RunOptions{Iterations: 20, Seed: 9, MinCPUMHz: 1000})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nplan: %s over %v\n", rep.Plan.Kind, rep.Peers)
	// Figure 1's parts stream over pipes, so every chunk a donor
	// fetched is a module bundle.
	for _, w := range grid.Workers {
		st := w.ChunkStore().Snapshot()
		fmt.Printf("  %s fetched %d module bundles (%d bytes) on demand\n",
			w.PeerID(), st.FetchRing+st.FetchPeer+st.FetchController, st.FetchedBytes)
	}
	spec := rep.Result().Unit("Grapher").(*unitio.Grapher).Last().(*types.Spectrum)
	fmt.Printf("\nrecovered spectrum peak: %.0f Hz after 20 averaged iterations\n",
		spec.PeakFrequency())
	fmt.Println("the weak 900 MHz laptop was filtered out by the capability query;")
	fmt.Println("the two qualifying donors split the farm and pulled code on demand.")
}
