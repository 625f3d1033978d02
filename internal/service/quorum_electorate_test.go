package service

// A quorum's first electorate is a majority: K/2+1 voters, with a
// further voter launched only when those disagree or fail.

import (
	"fmt"
	"testing"

	"consumergrid/internal/simnet"
)

// TestQuorumMajorityFirstElectorate runs a Quorum:K farm for K in
// {2, 3, 5} against four first-electorate outcomes and checks the
// runner's books exactly. Faults sit on the first-listed peers, which
// a controller with no history ranks first, so they vote in chunk 0;
// their verdicts rank them last for chunk 1, whose first electorate
// agrees at once. A clean chunk despatches K/2+1 voters; each
// widening of a dissenting vote or replacement of a failed voter adds
// one, and counts as a redespatch.
func TestQuorumMajorityFirstElectorate(t *testing.T) {
	const nChunks, perChunk = 2, 3
	chunks := bigChunks(chaosSeed, nChunks, perChunk, ladderBins)
	want := faultFreeBaseline(t, chunks)

	rows := []struct {
		name string
		// faults injects the row's fault on the peers, in listed order.
		faults func(n *simnet.Network, peers []PeerRef)
		// extra is the despatches beyond the first electorate, all in
		// chunk 0; failed is how many of those despatches failed.
		extra, failed int
		disagreements int64
	}{
		{"clean", func(*simnet.Network, []PeerRef) {}, 0, 0, 0},
		// One corrupter splits a majority of two, or leaves a majority
		// of three one honest ballot short: one widening either way.
		{"corrupter", func(n *simnet.Network, peers []PeerRef) {
			n.SetLinkFaults(peers[0].ID, simnet.LinkFaults{CorruptEvery: 1})
		}, 1, 0, 1},
		// A dead voter's failed despatch is replaced once.
		{"dead", func(n *simnet.Network, peers []PeerRef) {
			n.Kill(peers[0].ID)
		}, 1, 1, 0},
		// Two liars with different lies: the vote widens twice before
		// the honest ballots reach a majority.
		{"split", func(n *simnet.Network, peers []PeerRef) {
			n.SetLinkFaults(peers[0].ID, simnet.LinkFaults{CorruptEvery: 1})
			n.SetLinkFaults(peers[1].ID, simnet.LinkFaults{CorruptEvery: 1})
		}, 2, 0, 2},
	}
	for _, k := range []int{2, 3, 5} {
		for _, row := range rows {
			t.Run(fmt.Sprintf("K%d/%s", k, row.name), func(t *testing.T) {
				prefix := fmt.Sprintf("me%d%s-", k, row.name)
				n := simnet.New()
				ctl := newService(t, n.Peer(prefix+"ctl"), prefix+"ctl", Options{Resilience: chaosResilience()})
				// Two spare peers: a split of K = 2 widens to four voters.
				var peers []PeerRef
				for i := 1; i <= k+2; i++ {
					label := fmt.Sprintf("%sw%d", prefix, i)
					w := newService(t, n.Peer(label), label, Options{})
					peers = append(peers, PeerRef{ID: label, Addr: w.Addr()})
				}
				row.faults(n, peers)

				despatched, refused := despatchesTotal.Value(), despatchFailures.Value()
				rep := runChaosFarm(t, ctl, peers, chunks, FarmOptions{Quorum: k})
				assertSameBytes(t, rep.Outputs, want)

				majority := k/2 + 1
				launched := despatchesTotal.Value() - despatched + despatchFailures.Value() - refused
				if wantLaunched := int64(nChunks*majority + row.extra); launched != wantLaunched {
					t.Errorf("despatches = %d, want %d: %d per chunk plus %d in chunk 0",
						launched, wantLaunched, majority, row.extra)
				}
				if rep.Redespatches != int64(row.extra) {
					t.Errorf("redespatches = %d, want %d", rep.Redespatches, row.extra)
				}
				if rep.QuorumDisagreements != row.disagreements {
					t.Errorf("quorum disagreements = %d, want %d", rep.QuorumDisagreements, row.disagreements)
				}
				// Every ballot but each chunk's committed one is waste; a
				// failed despatch returned no outputs.
				ballots := nChunks*majority + row.extra - row.failed
				if wantWaste := int64((ballots - nChunks) * perChunk); rep.WastedOutputs != wantWaste {
					t.Errorf("wasted outputs = %d, want %d (%d ballots for %d commits)",
						rep.WastedOutputs, wantWaste, ballots, nChunks)
				}
				// The row's faulty peers are its first listed ones.
				for _, p := range peers[:row.failed+int(row.disagreements)] {
					if rep.PeerChunks[p.ID] != 0 {
						t.Errorf("faulty peer %s committed %d chunks", p.ID, rep.PeerChunks[p.ID])
					}
				}
			})
		}
	}
}
