// Package webstatus serves a Triana peer's state over plain HTTP, the
// paper's §3.2 requirement that "users should be able to obtain progress
// of their running network via the internet using a standard Web
// browser". The pages are deliberately dependency-free HTML: peer
// identity, hosted jobs and their states, the billing ledger, and the
// unit toolbox.
package webstatus

import (
	"fmt"
	"html"
	"net/http"
	"strings"

	"consumergrid/internal/capgroup"
	"consumergrid/internal/metrics"
	"consumergrid/internal/service"
	"consumergrid/internal/trace"
	"consumergrid/internal/units"
)

// Handler builds the status mux for one service daemon.
//
//	GET /          overview: peer identity + job table
//	GET /jobs      job table only (auto-refreshing)
//	GET /billing   the resource-usage ledger
//	GET /units     the unit toolbox
//	GET /metrics   the live registry, Prometheus text format
//	GET /traces    recent despatch traces as indented span trees
//	GET /overlay   the discovery overlay: ring membership, publishes,
//	               subscriptions and (for super-peers) the advert store
//	GET /groups    capability groups: this peer's identity and every
//	               group its discovery can see, read from service adverts
//	GET /healthz   liveness probe: 200 while the daemon serves HTTP
//	GET /readyz    readiness probe: 200 while admitting, 503 once
//	               draining or stopped
func Handler(svc *service.Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		var b strings.Builder
		header(&b, "Triana peer "+svc.PeerID())
		fmt.Fprintf(&b, "<p>peer <b>%s</b> at <code>%s</code></p>",
			html.EscapeString(svc.PeerID()), html.EscapeString(svc.Addr()))
		snap := svc.ChunkStore().Snapshot()
		fmt.Fprintf(&b, "<p>chunks fetched on demand, module bundles included: %d (%d bytes)</p>",
			snap.FetchRing+snap.FetchPeer+snap.FetchController, snap.FetchedBytes)
		fmt.Fprintf(&b, `<p><a href="/jobs">jobs</a> · <a href="/billing">billing</a> · <a href="/resilience">resilience</a> · <a href="/overlay">overlay</a> · <a href="/groups">groups</a> · <a href="/units">units</a> · <a href="/metrics">metrics</a> · <a href="/traces">traces</a></p>`)
		jobsTable(&b, svc)
		resilienceTable(&b, svc)
		footer(&b)
		writeHTML(w, b.String())
	})
	mux.HandleFunc("/jobs", func(w http.ResponseWriter, r *http.Request) {
		var b strings.Builder
		header(&b, "Jobs on "+svc.PeerID())
		b.WriteString(`<meta http-equiv="refresh" content="2">`)
		jobsTable(&b, svc)
		footer(&b)
		writeHTML(w, b.String())
	})
	mux.HandleFunc("/billing", func(w http.ResponseWriter, r *http.Request) {
		var b strings.Builder
		header(&b, "Billing on "+svc.PeerID())
		b.WriteString("<table><tr><th>requester</th><th>jobs</th><th>cpu</th><th>processed</th></tr>")
		for _, e := range svc.Billing() {
			fmt.Fprintf(&b, "<tr><td>%s</td><td>%d</td><td>%v</td><td>%d</td></tr>",
				html.EscapeString(e.Requester), e.Jobs, e.CPU, e.Processed)
		}
		b.WriteString("</table>")
		footer(&b)
		writeHTML(w, b.String())
	})
	mux.HandleFunc("/resilience", func(w http.ResponseWriter, r *http.Request) {
		var b strings.Builder
		header(&b, "Resilience on "+svc.PeerID())
		b.WriteString(`<meta http-equiv="refresh" content="2">`)
		resilienceTable(&b, svc)
		healthTable(&b, svc)
		footer(&b)
		writeHTML(w, b.String())
	})
	mux.HandleFunc("/units", func(w http.ResponseWriter, r *http.Request) {
		var b strings.Builder
		header(&b, "Unit toolbox")
		b.WriteString("<table><tr><th>unit</th><th>in/out</th><th>description</th></tr>")
		for _, n := range units.Names() {
			m, _ := units.Lookup(n)
			fmt.Fprintf(&b, "<tr><td><code>%s</code></td><td>%d/%d</td><td>%s</td></tr>",
				html.EscapeString(n), m.In, m.Out, html.EscapeString(m.Description))
		}
		b.WriteString("</table>")
		footer(&b)
		writeHTML(w, b.String())
	})
	mux.HandleFunc("/overlay", func(w http.ResponseWriter, r *http.Request) {
		var b strings.Builder
		header(&b, "Overlay on "+svc.PeerID())
		b.WriteString(`<meta http-equiv="refresh" content="2">`)
		overlayTables(&b, svc)
		footer(&b)
		writeHTML(w, b.String())
	})
	mux.HandleFunc("/groups", func(w http.ResponseWriter, r *http.Request) {
		var b strings.Builder
		header(&b, "Capability groups on "+svc.PeerID())
		b.WriteString(`<meta http-equiv="refresh" content="2">`)
		groupsTable(&b, svc)
		footer(&b)
		writeHTML(w, b.String())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		// Liveness: the daemon's HTTP loop is serving. Stays 200 even
		// while draining — a draining daemon must not be killed early.
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		// Readiness: admitting new work. Flips to 503 the moment a drain
		// begins so load balancers stop routing farms here.
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if !svc.Ready() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintf(w, "not ready: %s\n", svc.LifecycleState())
			return
		}
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := metrics.Default().WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/traces", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		rec := trace.Default()
		if id := r.URL.Query().Get("trace"); id != "" {
			for _, sp := range rec.Trace(id) {
				fmt.Fprintln(w, trace.FormatSpan(sp))
			}
			return
		}
		if err := rec.WriteText(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	return mux
}

func jobsTable(b *strings.Builder, svc *service.Service) {
	jobs := svc.Jobs()
	if len(jobs) == 0 {
		b.WriteString("<p>no jobs hosted yet</p>")
		return
	}
	b.WriteString("<table><tr><th>job</th><th>state</th><th>processed</th></tr>")
	for _, j := range jobs {
		fmt.Fprintf(b, "<tr><td><code>%s</code></td><td>%s</td><td>%d</td></tr>",
			html.EscapeString(j.ID), j.State, j.Processed)
	}
	b.WriteString("</table>")
}

// resilienceTable renders the despatch-recovery counters: how hard this
// peer has had to work to keep distributed runs alive under churn.
func resilienceTable(b *strings.Builder, svc *service.Service) {
	snap := svc.Resilience().Snapshot()
	b.WriteString("<h2>despatch resilience</h2>" +
		"<table><tr><th>counter</th><th>value</th></tr>")
	rows := []struct {
		name string
		v    int64
	}{
		{"rpc retries", snap.Retries},
		{"re-despatches", snap.Redespatches},
		{"peers declared dead", snap.PeersDeclaredDead},
		{"wasted outputs", snap.WastedItems},
		{"speculative launches", snap.SpeculationLaunches},
		{"speculation wins", snap.SpeculationWins},
		{"speculation waste", snap.SpeculationWaste},
		{"quorum commits", snap.QuorumCommits},
		{"quorum disagreements", snap.QuorumDisagreements},
		{"quorum output fetches", snap.QuorumFetches},
		{"farm egress bytes", snap.FarmEgressBytes},
	}
	for _, r := range rows {
		fmt.Fprintf(b, "<tr><td>%s</td><td>%d</td></tr>", r.name, r.v)
	}
	b.WriteString("</table>")
	tenantTable(b, svc)
	chunkstoreTable(b, svc)
}

// tenantTable renders the fair-share scheduler's per-tenant ledger:
// who is using the despatch budget and who is queued behind it.
func tenantTable(b *strings.Builder, svc *service.Service) {
	tenants, inflight, limit := svc.Tenants()
	b.WriteString("<h2>tenants</h2>")
	fmt.Fprintf(b, "<p>despatch budget %d, %d in flight</p>", limit, inflight)
	if len(tenants) == 0 {
		b.WriteString("<p>no tenants observed yet</p>")
		return
	}
	b.WriteString("<table><tr><th>tenant</th><th>weight</th><th>inflight</th>" +
		"<th>queued</th><th>admits</th><th>p99 wait (ms)</th></tr>")
	for _, t := range tenants {
		fmt.Fprintf(b, "<tr><td><code>%s</code></td><td>%d</td><td>%d</td>"+
			"<td>%d</td><td>%d</td><td>%.2f</td></tr>",
			html.EscapeString(t.Tenant), t.Weight, t.Inflight, t.Queued,
			t.Admits, t.P99WaitMS)
	}
	b.WriteString("</table>")
}

// chunkstoreTable renders the data-tier cache: where this peer's farm
// chunks and module bundles actually came from, and how many controller
// bytes the ladder saved.
func chunkstoreTable(b *strings.Builder, svc *service.Service) {
	snap := svc.ChunkStore().Snapshot()
	b.WriteString("<h2>chunk store</h2>" +
		"<table><tr><th>counter</th><th>value</th></tr>")
	rows := []struct {
		name string
		v    int64
	}{
		{"cache hits", snap.Hits},
		{"cache misses", snap.Misses},
		{"fetches from ring", snap.FetchRing},
		{"fetches from peers", snap.FetchPeer},
		{"fetches from controller", snap.FetchController},
		{"fetched bytes", snap.FetchedBytes},
		{"controller bytes saved", snap.BytesSaved},
		{"evictions", snap.Evictions},
		{"digest mismatches", snap.DigestMismatch},
		{"cached bytes", snap.CacheBytes},
		{"cached chunks", int64(snap.Entries)},
	}
	for _, r := range rows {
		fmt.Fprintf(b, "<tr><td>%s</td><td>%d</td></tr>", r.name, r.v)
	}
	b.WriteString("</table>")
}

// groupsTable renders this peer's capability identity and every group
// the service adverts discovery can see declare, members ranked the
// same way despatch ranks them (CPU descending).
func groupsTable(b *strings.Builder, svc *service.Service) {
	fmt.Fprintf(b, "<p>this peer's group: <code>%s</code></p>", html.EscapeString(svc.GroupKey()))
	fmt.Fprintf(b, "<p>capability set: <code>%s</code></p>", html.EscapeString(svc.Caps().Canon()))
	if req := svc.RequiredCaps(); len(req) > 0 {
		reqSet := capgroup.Set(req)
		fmt.Fprintf(b, "<p>despatch requires: <code>%s</code></p>", html.EscapeString(reqSet.Canon()))
	}
	groups := svc.CapabilityIndex().Snapshot()
	if len(groups) == 0 {
		b.WriteString("<p>no groups visible</p>")
		return
	}
	b.WriteString("<table><tr><th>group</th><th>caps</th><th>member</th><th>addr</th><th>CPU MHz</th></tr>")
	for _, g := range groups {
		for i, m := range g.Members {
			key, canon := "", ""
			if i == 0 {
				key, canon = g.Key, g.Canon
			}
			fmt.Fprintf(b, "<tr><td><code>%s</code></td><td><code>%s</code></td>"+
				"<td><code>%s</code></td><td><code>%s</code></td><td>%.0f</td></tr>",
				html.EscapeString(key), html.EscapeString(canon),
				html.EscapeString(m.PeerID), html.EscapeString(m.Addr), m.CPUMHz)
		}
	}
	b.WriteString("</table>")
}

// healthTable renders the live per-peer health view: EWMA success
// score, breaker state and observed latency quantiles for every peer
// this service has worked with.
func healthTable(b *strings.Builder, svc *service.Service) {
	peers := svc.Health().Snapshot()
	b.WriteString("<h2>peer health</h2>")
	if len(peers) == 0 {
		b.WriteString("<p>no peers observed yet</p>")
		return
	}
	b.WriteString("<table><tr><th>peer</th><th>breaker</th><th>score</th>" +
		"<th>p50</th><th>p90</th><th>flags</th></tr>")
	for _, p := range peers {
		var flags []string
		if p.Dead {
			flags = append(flags, "dead")
		}
		if p.Suspect {
			flags = append(flags, "suspect")
		}
		fmt.Fprintf(b, "<tr><td><code>%s</code></td><td>%s</td><td>%.3f</td>"+
			"<td>%v</td><td>%v</td><td>%s</td></tr>",
			html.EscapeString(p.Peer), p.State, p.Score, p.P50, p.P90,
			html.EscapeString(strings.Join(flags, " ")))
	}
	b.WriteString("</table>")
}

// overlayTables renders the peer's view of the discovery overlay: the
// super-peer ring it publishes into and — when this daemon is itself a
// super-peer — the replicated advert store it serves.
func overlayTables(b *strings.Builder, svc *service.Service) {
	cl := svc.Overlay()
	if cl == nil {
		b.WriteString("<p>discovery overlay not configured; this peer is standalone</p>")
		return
	}
	stats := cl.Stats()
	b.WriteString("<h2>overlay client</h2>" +
		"<table><tr><th>item</th><th>value</th></tr>")
	fmt.Fprintf(b, "<tr><td>replication factor</td><td>%d</td></tr>", stats.Replication)
	fmt.Fprintf(b, "<tr><td>published adverts</td><td>%d</td></tr>", stats.Published)
	fmt.Fprintf(b, "<tr><td>push subscriptions</td><td>%d</td></tr>", stats.Subscriptions)
	b.WriteString("</table>")

	b.WriteString("<h2>super-peer ring</h2>")
	if len(stats.Supers) == 0 {
		b.WriteString("<p>ring is empty</p>")
	} else {
		b.WriteString("<table><tr><th>super-peer</th></tr>")
		for _, addr := range stats.Supers {
			fmt.Fprintf(b, "<tr><td><code>%s</code></td></tr>", html.EscapeString(addr))
		}
		b.WriteString("</table>")
	}

	sp := svc.OverlaySuper()
	if sp == nil {
		b.WriteString("<p>this peer is an overlay client only (not a ring member)</p>")
		return
	}
	live, tombstones := sp.Entries()
	b.WriteString("<h2>super-peer store</h2>" +
		"<table><tr><th>item</th><th>value</th></tr>")
	fmt.Fprintf(b, "<tr><td>live adverts</td><td>%d</td></tr>", live)
	fmt.Fprintf(b, "<tr><td>tombstones</td><td>%d</td></tr>", tombstones)
	fmt.Fprintf(b, "<tr><td>subscriptions served</td><td>%d</td></tr>", sp.Subscriptions())
	b.WriteString("</table>")
}

func header(b *strings.Builder, title string) {
	fmt.Fprintf(b, "<!DOCTYPE html><html><head><title>%s</title>"+
		"<style>body{font-family:sans-serif;margin:2em}table{border-collapse:collapse}"+
		"td,th{border:1px solid #999;padding:2px 8px;text-align:left}</style>"+
		"</head><body><h1>%s</h1>", html.EscapeString(title), html.EscapeString(title))
}

func footer(b *strings.Builder) { b.WriteString("</body></html>") }

func writeHTML(w http.ResponseWriter, s string) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, s)
}
