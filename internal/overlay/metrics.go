package overlay

import "consumergrid/internal/metrics"

// superMetrics binds one super-peer's overlay_* series. Series are
// labelled with the owning peer ID so several supers (and their
// clients) can share one registry, mirroring how health gauges do it.
type superMetrics struct {
	ringSize      *metrics.Gauge
	subscriptions *metrics.Gauge
	storeLive     *metrics.Gauge
	storeTombs    *metrics.Gauge
	publishes     *metrics.Counter
	replicas      *metrics.Counter
	queries       *metrics.Counter
	replyHits     *metrics.Counter // queries answered with a stored reply
	notifies      *metrics.Counter
	retractions   *metrics.Counter
	syncRounds    *metrics.Counter
	syncPulled    *metrics.Counter
	chunkPuts     *metrics.Counter // chunk replicas accepted into the vault
	chunkPutBytes *metrics.Counter
	pushLatency   *metrics.Histogram // seconds, per notify RPC
}

func newSuperMetrics(reg *metrics.Registry, owner string) *superMetrics {
	if reg == nil {
		reg = metrics.Default()
	}
	l := func(family string) string { return metrics.Series(family, "peer", owner) }
	return &superMetrics{
		ringSize:      reg.Gauge(l("overlay_ring_size")),
		subscriptions: reg.Gauge(l("overlay_subscriptions")),
		storeLive:     reg.Gauge(l("overlay_store_adverts")),
		storeTombs:    reg.Gauge(l("overlay_store_tombstones")),
		publishes:     reg.Counter(l("overlay_publishes_total")),
		replicas:      reg.Counter(l("overlay_replicas_total")),
		queries:       reg.Counter(l("overlay_queries_total")),
		replyHits:     reg.Counter(l("overlay_query_reply_hits_total")),
		notifies:      reg.Counter(l("overlay_notifies_total")),
		retractions:   reg.Counter(l("overlay_retractions_total")),
		syncRounds:    reg.Counter(l("overlay_sync_rounds_total")),
		syncPulled:    reg.Counter(l("overlay_sync_pulled_total")),
		chunkPuts:     reg.Counter(l("overlay_chunk_puts_total")),
		chunkPutBytes: reg.Counter(l("overlay_chunk_put_bytes_total")),
		pushLatency:   reg.Histogram(l("overlay_push_latency_seconds")),
	}
}

// clientMetrics binds one overlay client's series.
type clientMetrics struct {
	publishes     *metrics.Counter
	queries       *metrics.Counter
	events        *metrics.Counter
	deduped       *metrics.Counter
	subscriptions *metrics.Gauge
}

func newClientMetrics(reg *metrics.Registry, owner string) *clientMetrics {
	if reg == nil {
		reg = metrics.Default()
	}
	l := func(family string) string { return metrics.Series(family, "peer", owner) }
	return &clientMetrics{
		publishes:     reg.Counter(l("overlay_client_publishes_total")),
		queries:       reg.Counter(l("overlay_client_queries_total")),
		events:        reg.Counter(l("overlay_client_events_total")),
		deduped:       reg.Counter(l("overlay_client_events_deduped_total")),
		subscriptions: reg.Gauge(l("overlay_client_subscriptions")),
	}
}
