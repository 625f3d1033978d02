package webstatus

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"consumergrid/internal/jxtaserve"
	"consumergrid/internal/overlay"
	"consumergrid/internal/policy"
	"consumergrid/internal/service"
	"consumergrid/internal/taskgraph"
	"consumergrid/internal/units"
	"consumergrid/internal/units/signal"

	_ "consumergrid/internal/units/flow"
	_ "consumergrid/internal/units/unitio"
)

func get(t *testing.T, srv *httptest.Server, path string) string {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", path, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/html") {
		t.Errorf("content type = %q", ct)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestStatusPages(t *testing.T) {
	tr := jxtaserve.NewInProc()
	worker, err := service.New(service.Options{
		PeerID: "web-worker", Transport: tr, CPUMHz: 1500})
	if err != nil {
		t.Fatal(err)
	}
	defer worker.Close()
	ctl, err := service.New(service.Options{PeerID: "web-ctl", Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()

	srv := httptest.NewServer(Handler(worker))
	defer srv.Close()

	// Overview before any work.
	home := get(t, srv, "/")
	if !strings.Contains(home, "web-worker") || !strings.Contains(home, "no jobs hosted yet") {
		t.Errorf("home = %s", home)
	}
	if get(t, srv, "/units"); false {
		t.Fatal()
	}
	unitsPage := get(t, srv, "/units")
	if !strings.Contains(unitsPage, signal.NameWave) {
		t.Error("units page missing Wave")
	}

	// Run a distributed group through the worker, then re-check.
	g := taskgraph.New("web")
	w, _ := units.NewTask("Wave", signal.NameWave)
	w.SetParam("samples", "128")
	g.MustAdd(w)
	gn, _ := units.NewTask("Gauss", signal.NameGaussianNoise)
	g.MustAdd(gn)
	sink, _ := units.NewTask("Null", "triana.flow.Null")
	g.MustAdd(sink)
	g.ConnectNamed("Wave", 0, "Gauss", 0)
	g.ConnectNamed("Gauss", 0, "Null", 0)
	if _, err := g.GroupTasks("G", []string{"Gauss"}); err != nil {
		t.Fatal(err)
	}
	plan := &policy.Plan{Kind: policy.KindParallel, Replicas: []string{"web-worker"}}
	peers := map[string]service.PeerRef{"web-worker": {ID: "web-worker", Addr: worker.Addr()}}
	if _, err := ctl.RunDistributed(context.Background(), g, "G", plan, peers,
		service.DistOptions{Iterations: 4, Seed: 1}); err != nil {
		t.Fatal(err)
	}

	jobs := get(t, srv, "/jobs")
	if !strings.Contains(jobs, "web-worker/job-1") || !strings.Contains(jobs, "done") {
		t.Errorf("jobs page = %s", jobs)
	}
	billing := get(t, srv, "/billing")
	if !strings.Contains(billing, "web-ctl") {
		t.Errorf("billing page missing requester: %s", billing)
	}

	// The controller observed the worker during the run, so its
	// resilience page lists the new counters and a live health row.
	ctlSrv := httptest.NewServer(Handler(ctl))
	defer ctlSrv.Close()
	res := get(t, ctlSrv, "/resilience")
	for _, want := range []string{
		"speculative launches", "quorum disagreements",
		"peer health", "web-worker", "closed",
	} {
		if !strings.Contains(res, want) {
			t.Errorf("resilience page missing %q", want)
		}
	}

	// Unknown paths 404.
	resp, err := http.Get(srv.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path status = %d", resp.StatusCode)
	}
}

// getPlain fetches a text/plain endpoint (/metrics, /traces) — the
// shared get helper asserts text/html.
func getPlain(t *testing.T, srv *httptest.Server, path string) (string, string) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", path, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b), resp.Header.Get("Content-Type")
}

func TestMetricsAndTracesEndpoints(t *testing.T) {
	tr := jxtaserve.NewInProc()
	worker, err := service.New(service.Options{PeerID: "metrics-worker", Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer worker.Close()
	srv := httptest.NewServer(Handler(worker))
	defer srv.Close()

	body, ct := getPlain(t, srv, "/metrics")
	if !strings.Contains(ct, "text/plain") || !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("metrics content type = %q", ct)
	}
	// Core series are registered eagerly, so even a fresh daemon's
	// scrape lists them — the property the CI smoke test relies on.
	for _, series := range []string{
		"# TYPE service_despatches_total counter",
		"service_jobs_hosted_total",
		"service_jobs_live",
		"jxtaserve_messages_sent_total",
		"chunkstore_fetch_total",
	} {
		if !strings.Contains(body, series) {
			t.Errorf("/metrics missing %q", series)
		}
	}

	if _, ct := getPlain(t, srv, "/traces"); !strings.Contains(ct, "text/plain") {
		t.Errorf("traces content type = %q", ct)
	}
	// Narrowing to an unknown trace is a 200 with no spans, not an error.
	if body, _ := getPlain(t, srv, "/traces?trace=nosuch"); body != "" {
		t.Errorf("unknown trace returned %q", body)
	}
}

func TestJobsSnapshotStates(t *testing.T) {
	tr := jxtaserve.NewInProc()
	worker, err := service.New(service.Options{PeerID: "w", Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer worker.Close()
	if jobs := worker.Jobs(); len(jobs) != 0 {
		t.Errorf("fresh jobs = %+v", jobs)
	}
}

// TestOverlayPage covers both shapes of /overlay: a flat peer reports
// the overlay as unconfigured, and an overlay super-peer renders ring
// membership, its client stats and the replicated advert store.
func TestOverlayPage(t *testing.T) {
	tr := jxtaserve.NewInProc()
	flat, err := service.New(service.Options{PeerID: "flat-peer", Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer flat.Close()
	flatSrv := httptest.NewServer(Handler(flat))
	defer flatSrv.Close()
	if page := get(t, flatSrv, "/overlay"); !strings.Contains(page, "overlay not configured") {
		t.Errorf("flat /overlay = %s", page)
	}

	// A seed super (known address) so the second daemon has a ring to join.
	seedTr := jxtaserve.NewMux(tr, jxtaserve.WireOptions{})
	defer seedTr.Close()
	seedHost, err := jxtaserve.NewHost("seed-super", seedTr, "")
	if err != nil {
		t.Fatal(err)
	}
	defer seedHost.Close()
	seedRing := overlay.NewRing(0, seedHost.Addr())
	seedSuper, err := overlay.NewSuper(seedHost, overlay.SuperOptions{
		Ring: seedRing, Replication: 2, SweepInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer seedSuper.Close()

	super, err := service.New(service.Options{
		PeerID: "web-super", Transport: tr, CPUMHz: 2000,
		Overlay: &service.OverlayOptions{
			SuperPeers: []string{seedHost.Addr()}, SuperPeer: true,
			Replication: 2, SyncInterval: -1, SweepInterval: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer super.Close()
	if err := super.Advertise(time.Hour); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(Handler(super))
	defer srv.Close()
	page := get(t, srv, "/overlay")
	for _, want := range []string{
		"overlay client", "replication factor", "published adverts",
		"super-peer ring", seedHost.Addr(),
		"super-peer store", "live adverts", "tombstones", "subscriptions served",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("/overlay missing %q", want)
		}
	}
	// The daemon advertised itself through the overlay — one service
	// advert, which carries its capability-group membership too — so
	// the page reports one maintained advert.
	if !strings.Contains(page, "<tr><td>published adverts</td><td>1</td></tr>") {
		t.Errorf("/overlay published count wrong:\n%s", page)
	}
}

// TestProbesFlipOnDrain exercises the Kubernetes-style probe pair:
// /healthz stays 200 for the daemon's whole life, while /readyz is 200
// only while the service admits new work and flips to 503 the moment a
// drain begins.
func TestProbesFlipOnDrain(t *testing.T) {
	tr := jxtaserve.NewInProc()
	svc, err := service.New(service.Options{PeerID: "probe-peer", Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	srv := httptest.NewServer(Handler(svc))
	defer srv.Close()

	probe := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(b)
	}

	if code, body := probe("/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz before drain = %d %q, want 200 ok", code, body)
	}
	if code, body := probe("/readyz"); code != http.StatusOK || !strings.Contains(body, "ready") {
		t.Fatalf("/readyz before drain = %d %q, want 200 ready", code, body)
	}

	done := svc.BeginDrain(5 * time.Second)
	if code, body := probe("/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Fatalf("/readyz during drain = %d %q, want 503 draining", code, body)
	}
	if code, _ := probe("/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz during drain = %d, want 200 (liveness must hold while draining)", code)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("drain did not complete")
	}
	if code, _ := probe("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz after drain = %d, want it to stay 503", code)
	}
}
