// Live despatch-plane series. Registered eagerly at package init so a
// fresh daemon's /metrics already lists every core service family, and
// incremented from the despatch and farming paths. Per-peer series are
// registered in New: the hosted-job counter and live-job gauge, and the
// resilience counters, bound via RegisterCounter so the same Counter
// instance feeds both the ResilienceStats snapshot API and the registry
// without double counting.
package service

import "consumergrid/internal/metrics"

var (
	// despatchesTotal counts parts shipped to remote peers (successful
	// triana.run round-trips).
	despatchesTotal = metrics.Default().Counter("service_despatches_total")
	// despatchFailures counts despatch attempts whose RPC ultimately
	// failed after retries.
	despatchFailures = metrics.Default().Counter("service_despatch_failures_total")
	// chunksInflight gauges farm chunks currently being attempted.
	chunksInflight = metrics.Default().Gauge("service_farm_chunks_inflight")
	// chunksCommitted counts farm chunks whose output was committed.
	chunksCommitted = metrics.Default().Counter("service_farm_chunks_committed_total")
	// despatchInflight gauges despatch attempts currently holding an
	// admission-control slot across every service in the process.
	despatchInflight = metrics.Default().Gauge("service_despatch_inflight")
)

// registerResilience binds a service's per-instance resilience counters
// into the process registry under peer-labelled series.
func registerResilience(peerID string, st *metrics.ResilienceStats) {
	reg := metrics.Default()
	reg.RegisterCounter(metrics.Series("service_retries_total", "peer", peerID), &st.Retries)
	reg.RegisterCounter(metrics.Series("service_redespatches_total", "peer", peerID), &st.Redespatches)
	reg.RegisterCounter(metrics.Series("service_peers_declared_dead_total", "peer", peerID), &st.PeersDeclaredDead)
	reg.RegisterCounter(metrics.Series("service_wasted_items_total", "peer", peerID), &st.WastedItems)
	reg.RegisterCounter(metrics.Series("service_speculation_launched_total", "peer", peerID), &st.SpeculationLaunches)
	reg.RegisterCounter(metrics.Series("service_speculation_wins_total", "peer", peerID), &st.SpeculationWins)
	reg.RegisterCounter(metrics.Series("service_speculation_waste_total", "peer", peerID), &st.SpeculationWaste)
	reg.RegisterCounter(metrics.Series("service_quorum_commits_total", "peer", peerID), &st.QuorumCommits)
	reg.RegisterCounter(metrics.Series("service_quorum_disagreements_total", "peer", peerID), &st.QuorumDisagreements)
	reg.RegisterCounter(metrics.Series("service_quorum_fetches_total", "peer", peerID), &st.QuorumFetches)
	reg.RegisterCounter(metrics.Series("service_farm_egress_bytes_total", "peer", peerID), &st.FarmEgressBytes)
}
