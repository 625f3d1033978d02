package service

// Capability-group farm discipline: a farm committed to a group must
// never despatch, speculate or seat a quorum voter outside it, and a
// quorum the group cannot carry ends with the typed
// ErrNoQuorumCapacity instead of silently widening across groups.

import (
	"context"
	"errors"
	"testing"

	"consumergrid/internal/capgroup"
	"consumergrid/internal/health"
	"consumergrid/internal/simnet"
	"consumergrid/internal/taskgraph"
)

// groupFarm runs FarmChunks with the chaos body and a committed group.
func groupFarm(t *testing.T, ctl *Service, fo FarmOptions) (*FarmReport, error) {
	t.Helper()
	fo.Body = func() *taskgraph.Graph { return accumBody(t) }
	return ctl.FarmChunks(context.Background(), chaosChunks(chaosSeed, 2, 3), fo)
}

// TestGroupFarmRestrictsDespatch: a group-committed farm routes every
// chunk to group members only — the out-of-group candidates stay idle
// even though they are listed, healthy and stronger-ranked.
func TestGroupFarmRestrictsDespatch(t *testing.T) {
	n := simnet.New()
	ctl, peers := quorumNet(t, n, "gf-", health.Options{})
	rep, err := groupFarm(t, ctl, FarmOptions{
		Peers:        peers,
		Group:        "cg-test00000001",
		GroupMembers: map[string]bool{"gf-w1": true, "gf-w2": true},
	})
	if err != nil {
		t.Fatalf("group farm failed: %v", err)
	}
	for peer, nChunks := range rep.PeerChunks {
		if peer != "gf-w1" && peer != "gf-w2" {
			t.Errorf("out-of-group peer %s committed %d chunks", peer, nChunks)
		}
	}
}

// TestGroupFarmNoMembers: committing to a group none of the candidates
// belong to is a configuration error, refused before any despatch.
func TestGroupFarmNoMembers(t *testing.T) {
	n := simnet.New()
	ctl, peers := quorumNet(t, n, "gn-", health.Options{})
	_, err := groupFarm(t, ctl, FarmOptions{
		Peers:        peers,
		Group:        "cg-test00000002",
		GroupMembers: map[string]bool{"someone-else": true},
	})
	if err == nil {
		t.Fatal("memberless group farm was accepted")
	}
}

// TestGroupQuorumFailsFastWhenGroupTooSmall is the satellite
// regression's fail-fast half: Quorum 3 passes the whole-pool peer
// count check (4 candidates) but the committed group seats only 2, so
// the farm must end with ErrNoQuorumCapacity before any despatch —
// not discover the shortfall chunk by chunk, and never widen onto the
// out-of-group candidates.
func TestGroupQuorumFailsFastWhenGroupTooSmall(t *testing.T) {
	n := simnet.New()
	ctl, peers := quorumNet(t, n, "gs-", health.Options{})
	before := capgroup.QuorumCapacityTotal()
	_, err := groupFarm(t, ctl, FarmOptions{
		Peers:        peers,
		Quorum:       3,
		Group:        "cg-test00000003",
		GroupMembers: map[string]bool{"gs-w1": true, "gs-w2": true},
	})
	if !errors.Is(err, ErrNoQuorumCapacity) {
		t.Fatalf("err = %v, want ErrNoQuorumCapacity", err)
	}
	if got := capgroup.QuorumCapacityTotal(); got != before+1 {
		t.Errorf("capgroup_quorum_capacity_errors_total moved %d -> %d, want +1", before, got)
	}
}

// TestGroupQuorumWideningSkipsOutOfGroup is the satellite regression's
// widening half: a 2-voter electorate splits 1-1 (one member is
// byzantine), the widening pass needs a fresh voter, and the only
// fresh candidates are outside the committed group. The old behaviour
// seated one of them — mixing incomparable digests into the ballot;
// now the farm must skip them and end with the typed
// ErrNoQuorumCapacity, leaving the out-of-group workers untouched.
func TestGroupQuorumWideningSkipsOutOfGroup(t *testing.T) {
	n := simnet.New()
	ctl := newService(t, n.Peer("gw-ctl"), "gw-ctl", Options{
		Resilience: chaosResilience(),
	})
	var peers []PeerRef
	workers := map[string]*Service{}
	for _, label := range []string{"gw-w1", "gw-w2", "gw-w3", "gw-w4"} {
		w := newService(t, n.Peer(label), label, Options{})
		workers[label] = w
		peers = append(peers, PeerRef{ID: label, Addr: w.Addr()})
	}
	// gw-w2 lies on every payload: the two in-group ballots are a
	// guaranteed 1-1 split, forcing the widening pass.
	n.SetLinkFaults("gw-w2", simnet.LinkFaults{CorruptEvery: 1})

	before := capgroup.QuorumCapacityTotal()
	_, err := groupFarm(t, ctl, FarmOptions{
		Peers:        peers,
		Quorum:       2,
		Group:        "cg-test00000004",
		GroupMembers: map[string]bool{"gw-w1": true, "gw-w2": true},
	})
	if !errors.Is(err, ErrNoQuorumCapacity) {
		t.Fatalf("err = %v, want ErrNoQuorumCapacity", err)
	}
	if got := capgroup.QuorumCapacityTotal(); got != before+1 {
		t.Errorf("capgroup_quorum_capacity_errors_total moved %d -> %d, want +1", before, got)
	}
	// The out-of-group candidates were never consulted — no despatch,
	// no ballot, no probe-driven job.
	for _, label := range []string{"gw-w3", "gw-w4"} {
		if jobs := workers[label].Jobs(); len(jobs) != 0 {
			t.Errorf("out-of-group peer %s hosted %d jobs; the electorate leaked", label, len(jobs))
		}
	}
}
