// capgroup_* metric families. Registered eagerly at package init so a
// fresh daemon's /metrics already lists them (the metrics smoke asserts
// exactly that), and incremented from the publish, match, fallback and
// quorum-capacity paths across service and controller.
package capgroup

import "consumergrid/internal/metrics"

var (
	// groupsGauge / membersGauge mirror the donor pool's live group
	// index: distinct groups and total memberships observed.
	groupsGauge  = metrics.Default().Gauge("capgroup_groups")
	membersGauge = metrics.Default().Gauge("capgroup_members")
	// publishTotal counts service adverts, and so group memberships,
	// published by this process's peers.
	publishTotal = metrics.Default().Counter("capgroup_publish_total")
	// matchTotal counts requirement -> group resolutions attempted.
	matchTotal = metrics.Default().Counter("capgroup_match_total")
	// fallbackTotal counts farms that required capabilities but fell
	// back to the health-ranked whole pool because no populated group
	// matched — the "empty group must not fail the farm" path.
	fallbackTotal = metrics.Default().Counter("capgroup_fallback_total")
	// quorumCapacityTotal counts quorum farms ended with
	// ErrNoQuorumCapacity: the electorate could not assemble or widen
	// without drawing voters from outside the committed group.
	quorumCapacityTotal = metrics.Default().Counter("capgroup_quorum_capacity_errors_total")
)

// SetIndexGauges publishes a live index's totals; only the long-lived
// donor-pool index should drive these (transient indexes built for one
// RPC reply must not).
func SetIndexGauges(groups, members int) {
	groupsGauge.Set(float64(groups))
	membersGauge.Set(float64(members))
}

// CountPublish records one membership publication.
func CountPublish() { publishTotal.Inc() }

// CountFallback records one whole-pool fallback.
func CountFallback() { fallbackTotal.Inc() }

// CountQuorumCapacity records one in-group quorum-capacity exhaustion.
func CountQuorumCapacity() { quorumCapacityTotal.Inc() }

// FallbackTotal exposes the fallback counter for tests.
func FallbackTotal() int64 { return fallbackTotal.Value() }

// QuorumCapacityTotal exposes the capacity-error counter for tests.
func QuorumCapacityTotal() int64 { return quorumCapacityTotal.Value() }
