package jxtaserve

import "consumergrid/internal/metrics"

// Wire accounting: every frame written or read by any host in the
// process, registered eagerly so a fresh daemon's /metrics already
// lists the series. Counters are lock-free atomics — WriteMessage and
// ReadMessage are the data plane's hottest functions.
var (
	wireMsgsOut  = metrics.Default().Counter("jxtaserve_messages_sent_total")
	wireMsgsIn   = metrics.Default().Counter("jxtaserve_messages_recv_total")
	wireBytesOut = metrics.Default().Counter("jxtaserve_bytes_sent_total")
	wireBytesIn  = metrics.Default().Counter("jxtaserve_bytes_recv_total")
)

// Session liveness (mux.go): keepalives sent by idle sessions, and
// sessions killed because their peer fell silent.
var (
	keepalivesSent   = metrics.Default().Counter(metrics.Series("jxtaserve_keepalives_total", "result", "sent"))
	keepalivesSilent = metrics.Default().Counter(metrics.Series("jxtaserve_keepalives_total", "result", "silent"))
)
