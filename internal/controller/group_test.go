package controller

// Capability-group acceptance scenarios: a mixed ring whose donors run
// two different unit-registry versions must farm each workload only to
// group-matching donors; a quorum electorate must come from a single
// group; and a requirement no populated group satisfies must fall back
// to the health-ranked whole pool — counted, not failed.

import (
	"context"
	"testing"

	"consumergrid/internal/capgroup"
	"consumergrid/internal/metrics"
	"consumergrid/internal/service"
	"consumergrid/internal/taskgraph"
)

// mixedRing builds the two-registry grid: workers a,b carry units
// r-v1, workers c,d carry r-v2, everything else about them equal.
// All workers share CPU/RAM (so their derived classes agree) and
// differ only in the Caps each is given — the deterministic stand-in
// for a ring mixing two unit-registry versions.
func mixedRing(t *testing.T) *testNet {
	t.Helper()
	return newNet(t, 4, func(i int) service.Options {
		return service.Options{CPUMHz: 1500, FreeRAMMB: 256,
			Caps: map[string]string{"units": []string{"r-v1", "r-v2"}[i/2]}}
	})
}

func groupFarmOpts(t *testing.T, req map[string]string) FarmOptions {
	t.Helper()
	return FarmOptions{
		Discovery: RunOptions{RequireCaps: req},
		Body:      func() *taskgraph.Graph { return smokeBody(t) },
	}
}

// jobCounts snapshots how many jobs each worker has ever hosted, read
// from its service_jobs_hosted_total series (Jobs forgets old ended
// jobs), so a farm's despatch footprint can be asserted as a delta.
func jobCounts(net *testNet) map[string]int64 {
	out := make(map[string]int64, len(net.workers))
	for _, w := range net.workers {
		out[w.PeerID()] = jobsHosted(w.PeerID())
	}
	return out
}

func jobsHosted(peer string) int64 {
	return metrics.Default().Counter(metrics.Series("service_jobs_hosted_total", "peer", peer)).Value()
}

// assertGroupOnly fails if any chunk committed outside the wanted
// member set, or any out-of-group worker hosted a new job since the
// before snapshot.
func assertGroupOnly(t *testing.T, net *testNet, rep *service.FarmReport,
	members map[string]bool, before map[string]int64) {
	t.Helper()
	for peer, n := range rep.PeerChunks {
		if !members[peer] {
			t.Errorf("out-of-group peer %s committed %d chunks", peer, n)
		}
	}
	for _, w := range net.workers {
		if members[w.PeerID()] {
			continue
		}
		if got := jobsHosted(w.PeerID()); got != before[w.PeerID()] {
			t.Errorf("out-of-group worker %s hosted %d new jobs",
				w.PeerID(), got-before[w.PeerID()])
		}
	}
}

// TestGroupFarmDespatchesOnlyToMatchingDonors is the mixed-ring
// acceptance: with the donor pool's group index live, a farm requiring
// units=r-v1 must despatch every chunk to the r-v1 workers and never
// touch the r-v2 workers — and the complementary requirement must do
// the reverse.
func TestGroupFarmDespatchesOnlyToMatchingDonors(t *testing.T) {
	net := mixedRing(t)
	pool, err := net.ctl.StartDonorPool(RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	advertiseAll(t, net)
	waitFor(t, "group index populated", func() bool {
		_, members := pool.GroupIndex().Counts()
		return members == len(net.workers)
	})

	for _, tc := range []struct {
		version string
		members map[string]bool
	}{
		{"r-v1", map[string]bool{workerID(0): true, workerID(1): true}},
		{"r-v2", map[string]bool{workerID(2): true, workerID(3): true}},
	} {
		before := jobCounts(net)
		rep, err := net.ctl.RunFarm(context.Background(), smokeChunks(3, 2, 0),
			groupFarmOpts(t, map[string]string{"units": tc.version}))
		if err != nil {
			t.Fatalf("group farm for %s: %v", tc.version, err)
		}
		assertGroupOnly(t, net, rep, tc.members, before)
		committed := 0
		for _, n := range rep.PeerChunks {
			committed += n
		}
		if committed != 3 {
			t.Errorf("%s farm committed %d chunks, want 3", tc.version, committed)
		}
	}
}

// TestGroupQuorumElectorateStaysInGroup: a Quorum:2 farm requiring
// units=r-v1 seats both voters inside the r-v1 group; the r-v2 workers
// never receive a ballot even though the pool lists them — quorum
// votes never mix groups.
func TestGroupQuorumElectorateStaysInGroup(t *testing.T) {
	net := mixedRing(t)
	pool, err := net.ctl.StartDonorPool(RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	advertiseAll(t, net)
	waitFor(t, "group index populated", func() bool {
		_, members := pool.GroupIndex().Counts()
		return members == len(net.workers)
	})

	opts := groupFarmOpts(t, map[string]string{"units": "r-v1"})
	opts.Quorum = 2
	before := jobCounts(net)
	rep, err := net.ctl.RunFarm(context.Background(), smokeChunks(2, 2, 0), opts)
	if err != nil {
		t.Fatalf("group quorum farm: %v", err)
	}
	assertGroupOnly(t, net, rep, map[string]bool{workerID(0): true, workerID(1): true}, before)
	if rep.QuorumDisagreements != 0 {
		t.Errorf("in-group electorate disagreed %d times; digests should be comparable by construction",
			rep.QuorumDisagreements)
	}
}

// TestGroupRequirementFallsBackToWholePool: a requirement no populated
// group satisfies must not fail the farm — it falls back to the
// health-ranked whole pool and counts the event on
// capgroup_fallback_total.
func TestGroupRequirementFallsBackToWholePool(t *testing.T) {
	net := mixedRing(t)
	pool, err := net.ctl.StartDonorPool(RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	advertiseAll(t, net)
	waitFor(t, "donors pooled", func() bool { return pool.Size() == len(net.workers) })

	before := capgroup.FallbackTotal()
	rep, err := net.ctl.RunFarm(context.Background(), smokeChunks(2, 2, 0),
		groupFarmOpts(t, map[string]string{"units": "r-v9"}))
	if err != nil {
		t.Fatalf("empty-group farm must fall back, got: %v", err)
	}
	committed := 0
	for _, n := range rep.PeerChunks {
		committed += n
	}
	if committed != 2 {
		t.Errorf("fallback farm committed %d chunks, want 2", committed)
	}
	if got := capgroup.FallbackTotal(); got != before+1 {
		t.Errorf("capgroup_fallback_total moved %d -> %d, want +1", before, got)
	}
}

// TestGroupResolutionWithoutPool: a controller with no donor pool
// resolves the requirement over pulled group adverts — the pull path
// keeps group despatch working for one-shot controllers.
func TestGroupResolutionWithoutPool(t *testing.T) {
	net := mixedRing(t)
	advertiseAll(t, net)
	// Pull queries are synchronous against the supers; no pool, no wait
	// on push propagation — but the adverts themselves replicate
	// asynchronously, so wait until discovery sees all four members.
	waitFor(t, "group adverts discoverable", func() bool {
		groups, _ := net.ctl.Service().CapabilityIndex().Counts()
		return groups == 2
	})

	before := jobCounts(net)
	rep, err := net.ctl.RunFarm(context.Background(), smokeChunks(2, 2, 0),
		groupFarmOpts(t, map[string]string{"units": "r-v2"}))
	if err != nil {
		t.Fatalf("poolless group farm: %v", err)
	}
	assertGroupOnly(t, net, rep, map[string]bool{workerID(2): true, workerID(3): true}, before)
}
