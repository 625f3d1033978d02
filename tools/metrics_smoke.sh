#!/bin/sh
# Boots trianad with the status and profiling servers, scrapes /metrics,
# and asserts the core eagerly-registered series families are present
# and that pprof answers. Used by `make metrics-smoke` and the CI smoke
# step.
set -eu

PORT="${METRICS_SMOKE_PORT:-18080}"
PPROF_PORT="${METRICS_SMOKE_PPROF_PORT:-18081}"
BIN="$(mktemp -d)/trianad"
OUT="$(mktemp)"
trap 'kill "$PID" 2>/dev/null || true; rm -f "$OUT"; rm -rf "$(dirname "$BIN")"' EXIT

go build -o "$BIN" ./cmd/trianad
"$BIN" -listen 127.0.0.1:0 -http "127.0.0.1:$PORT" -pprof "127.0.0.1:$PPROF_PORT" &
PID=$!

# Poll until the status server answers: the daemon starts in the
# background, and binds both ports only after parsing its flags.
i=0
until curl -fsS "http://127.0.0.1:$PORT/metrics" >"$OUT" 2>/dev/null; do
    i=$((i + 1))
    if [ "$i" -ge 50 ]; then
        echo "metrics-smoke: /metrics never came up on port $PORT" >&2
        exit 1
    fi
    if ! kill -0 "$PID" 2>/dev/null; then
        echo "metrics-smoke: trianad exited before serving" >&2
        exit 1
    fi
    sleep 0.2
done

status=0
for series in \
    jxtaserve_messages_sent_total \
    jxtaserve_bytes_recv_total \
    service_despatches_total \
    service_jobs_hosted_total \
    service_jobs_live \
    jxtaserve_keepalives_total \
    engine_cow_clones_total \
    chunkstore_cache_hits_total \
    chunkstore_fetch_total \
    service_farm_egress_bytes_total \
    service_tenant_admits_total \
    service_tenant_inflight \
    capgroup_groups \
    capgroup_members \
    capgroup_publish_total \
    capgroup_match_total \
    capgroup_fallback_total \
    capgroup_quorum_capacity_errors_total; do
    if ! grep -q "$series" "$OUT"; then
        echo "metrics-smoke: scrape is missing $series" >&2
        status=1
    fi
done

# /traces must answer too, even with no despatches yet.
if ! curl -fsS "http://127.0.0.1:$PORT/traces" >/dev/null; then
    echo "metrics-smoke: /traces not serving" >&2
    status=1
fi

# So must pprof: trianad serves it before logging that it is up.
if ! curl -fsS "http://127.0.0.1:$PPROF_PORT/debug/pprof/cmdline" >/dev/null; then
    echo "metrics-smoke: pprof not serving on port $PPROF_PORT" >&2
    status=1
fi

if [ "$status" -eq 0 ]; then
    echo "metrics-smoke: ok ($(grep -c '^# TYPE' "$OUT") series families)"
fi
exit "$status"
