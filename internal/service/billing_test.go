package service

import (
	"context"
	"strings"
	"testing"
	"time"

	"consumergrid/internal/advert"
	"consumergrid/internal/jxtaserve"
	"consumergrid/internal/policy"
	"consumergrid/internal/units/signal"
	"consumergrid/internal/units/unitio"
)

func TestBillingLedgerRecordsRemoteWork(t *testing.T) {
	tr := jxtaserve.NewInProc()
	ctl := newService(t, tr, "controller", Options{})
	worker := newService(t, tr, "worker", Options{})

	if entries := worker.Billing(); len(entries) != 0 {
		t.Fatalf("fresh ledger = %+v", entries)
	}

	g := figure1(t, policy.NameParallel)
	plan := &policy.Plan{Kind: policy.KindParallel, Replicas: []string{"worker"}}
	peers := map[string]PeerRef{"worker": {ID: "worker", Addr: worker.Addr()}}
	const iters = 6
	if _, err := ctl.RunDistributed(context.Background(), g, "GroupTask", plan, peers,
		DistOptions{Iterations: iters, Seed: 1}); err != nil {
		t.Fatal(err)
	}

	entries := worker.Billing()
	if len(entries) != 1 {
		t.Fatalf("ledger entries = %+v", entries)
	}
	e := entries[0]
	if e.Requester != "controller" {
		t.Errorf("requester = %q", e.Requester)
	}
	if e.Jobs != 1 {
		t.Errorf("jobs = %d", e.Jobs)
	}
	// The group body has 2 units, each processing iters data.
	if e.Processed != 2*iters {
		t.Errorf("processed = %d, want %d", e.Processed, 2*iters)
	}
	if e.CPU <= 0 {
		t.Error("no CPU time recorded")
	}

	// A second run accumulates.
	if _, err := ctl.RunDistributed(context.Background(), figure1(t, policy.NameParallel),
		"GroupTask", plan, peers, DistOptions{Iterations: iters, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	e = worker.Billing()[0]
	if e.Jobs != 2 || e.Processed != 4*iters {
		t.Errorf("accumulated = %+v", e)
	}

	// Remote audit over RPC matches the local view.
	remote, err := ctl.FetchBilling(worker.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if len(remote) != 1 || remote[0].Jobs != 2 || remote[0].Processed != e.Processed ||
		remote[0].Requester != "controller" {
		t.Errorf("remote ledger = %+v", remote)
	}
	if remote[0].CPU <= 0 {
		t.Error("remote CPU lost in transit")
	}
}

func TestCertifiedLibraryRejectsUnlistedUnits(t *testing.T) {
	tr := jxtaserve.NewInProc()
	ctl := newService(t, tr, "controller", Options{})
	// Worker certifies only the Gaussian unit — not PowerSpectrum.
	worker := newService(t, tr, "worker", Options{
		Certified: []string{signal.NameGaussianNoise},
	})

	g := figure1(t, policy.NameParallel)
	plan := &policy.Plan{Kind: policy.KindParallel, Replicas: []string{"worker"}}
	peers := map[string]PeerRef{"worker": {ID: "worker", Addr: worker.Addr()}}
	_, err := ctl.RunDistributed(context.Background(), g, "GroupTask", plan, peers,
		DistOptions{Iterations: 2, Seed: 1})
	if err == nil || !strings.Contains(err.Error(), "certified library") {
		t.Fatalf("uncertified unit ran: %v", err)
	}
	// Nothing was billed for the rejected request.
	if len(worker.Billing()) != 0 {
		t.Errorf("rejected request billed: %+v", worker.Billing())
	}
}

func TestCertifiedLibraryAllowsListedUnits(t *testing.T) {
	tr := jxtaserve.NewInProc()
	ctl := newService(t, tr, "controller", Options{})
	worker := newService(t, tr, "worker", Options{
		Certified: []string{signal.NameGaussianNoise, signal.NamePowerSpectrum},
	})
	g := figure1(t, policy.NameParallel)
	plan := &policy.Plan{Kind: policy.KindParallel, Replicas: []string{"worker"}}
	peers := map[string]PeerRef{"worker": {ID: "worker", Addr: worker.Addr()}}
	res, err := ctl.RunDistributed(context.Background(), g, "GroupTask", plan, peers,
		DistOptions{Iterations: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Local.Unit("Grapher").(*unitio.Grapher).Seen() != 3 {
		t.Error("certified run incomplete")
	}
}

// TestStartAdvertisingRefreshesAndRespectsIdleGate drives the periodic
// re-advertisement loop against a super-peer: fresh adverts keep landing
// while idle, stop while busy, and the stop function is idempotent.
func TestStartAdvertisingRefreshesAndRespectsIdleGate(t *testing.T) {
	tr := jxtaserve.NewInProc()
	sp, ring := superRing(t, tr)
	worker := newService(t, tr, "adv-worker", Options{Overlay: ring})
	// The ring as the super holds it.
	onRing := func() []*advert.Advertisement {
		ads, err := sp.Overlay().Query(advert.Query{Kind: advert.KindService}, 0)
		if err != nil {
			t.Fatal(err)
		}
		return ads
	}
	stop := worker.StartAdvertising(10*time.Millisecond, time.Hour)
	defer stop()

	deadline := time.Now().Add(5 * time.Second)
	found := false
	for time.Now().Before(deadline) {
		if ads := onRing(); len(ads) == 1 && ads[0].PeerID == "adv-worker" {
			found = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !found {
		t.Fatal("advert never reached the super-peer")
	}
	// Busy peers stop refreshing: retract the adverts and verify nothing
	// new lands while the gate is closed.
	worker.SetAvailable(false)
	time.Sleep(30 * time.Millisecond) // drain any in-flight publish
	if _, err := worker.Overlay().RetractAll(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if got := onRing(); len(got) != 0 {
		t.Errorf("busy worker kept advertising: %+v", got)
	}
	// Reopening the gate resumes.
	worker.SetAvailable(true)
	deadline = time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if len(onRing()) == 1 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if len(onRing()) != 1 {
		t.Error("idle worker did not resume advertising")
	}
	stop()
	stop() // idempotent
}
