package metrics

// ResilienceStats groups the counters the despatch resilience layer
// maintains: how often RPCs were retried, parts re-despatched to
// alternate peers, peers declared dead, and how many
// computed items were discarded as wasted work when a failed attempt's
// partial output was thrown away (§3.6.2 recovery accounting).
type ResilienceStats struct {
	Retries           Counter // RPC attempts beyond the first
	Redespatches      Counter // parts moved to an alternate peer
	PeersDeclaredDead Counter // dead-peer verdicts
	WastedItems       Counter // outputs discarded from failed attempts

	// Speculation and quorum accounting (the untrusted-peer layer):
	// backup attempts launched past the straggler threshold, races a
	// backup won, outputs thrown away because a racing sibling committed
	// first, chunks committed by majority vote, quorum votes where a
	// peer's result digest disagreed with the majority, and committed
	// outputs the controller fetched by content address because no
	// agreeing voter had streamed them.
	SpeculationLaunches Counter
	SpeculationWins     Counter
	SpeculationWaste    Counter
	QuorumCommits       Counter
	QuorumDisagreements Counter
	QuorumFetches       Counter
	// FarmEgressBytes counts the controller's data-plane bytes per farm:
	// manifests, ring write-through replicas, and controller-direct
	// chunk serves. The content-addressed tier exists to drive this
	// number down.
	FarmEgressBytes Counter
}

// ResilienceSnapshot is a point-in-time copy of the counters, in the
// shape the webstatus page and test assertions consume.
type ResilienceSnapshot struct {
	Retries             int64
	Redespatches        int64
	PeersDeclaredDead   int64
	WastedItems         int64
	SpeculationLaunches int64
	SpeculationWins     int64
	SpeculationWaste    int64
	QuorumCommits       int64
	QuorumDisagreements int64
	QuorumFetches       int64
	FarmEgressBytes     int64
}

// Snapshot reads every counter at once.
func (s *ResilienceStats) Snapshot() ResilienceSnapshot {
	return ResilienceSnapshot{
		Retries:             s.Retries.Value(),
		Redespatches:        s.Redespatches.Value(),
		PeersDeclaredDead:   s.PeersDeclaredDead.Value(),
		WastedItems:         s.WastedItems.Value(),
		SpeculationLaunches: s.SpeculationLaunches.Value(),
		SpeculationWins:     s.SpeculationWins.Value(),
		SpeculationWaste:    s.SpeculationWaste.Value(),
		QuorumCommits:       s.QuorumCommits.Value(),
		QuorumDisagreements: s.QuorumDisagreements.Value(),
		QuorumFetches:       s.QuorumFetches.Value(),
		FarmEgressBytes:     s.FarmEgressBytes.Value(),
	}
}
