package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"consumergrid/internal/advert"
	"consumergrid/internal/capgroup"
	"consumergrid/internal/chunkstore"
	"consumergrid/internal/controller"
	"consumergrid/internal/discovery"
	"consumergrid/internal/dsp"
	"consumergrid/internal/engine"
	"consumergrid/internal/jxtaserve"
	"consumergrid/internal/metrics"
	"consumergrid/internal/overlay"
	"consumergrid/internal/policy"
	"consumergrid/internal/service"
	"consumergrid/internal/taskgraph"
	"consumergrid/internal/types"
)

// prober runs the stage probes of the traced run: each calls one
// layer's public functions directly, from the harness, on the
// workload's own inputs, with the grid stood up but idle.
type prober struct {
	g    *grid
	kit  probeKit
	size sizing
	rec  *recorder
	root int
	out  metricSet
	// payload is kit.datum's canonical encoding; frameBytes the size of
	// the binary frame that carries it.
	payload    []byte
	frameBytes int
	// unitExecsPerRun is how many unit executions one engine.Run of the
	// body on one chunk makes, read off the engine's own counter.
	unitExecsPerRun float64
}

// probe calls fn under the probe root until the sizing's call count or
// its budget of measured time is reached, whichever is first — most
// layers answer in microseconds and reach the count, the millisecond ones
// (engine.Run on an inspiral chunk, a matched-filter bank) stop on the
// budget — and returns the sorted durations fn reported. fn times only
// the layer call itself, so per-call preparation stays out of the figure.
func (p *prober) probe(name string, fn func() (time.Duration, error)) ([]float64, error) {
	var ns []float64
	var spent time.Duration
	for i := 0; i < p.size.probeCalls && (i < probeMin || spent < p.size.probeBudget); i++ {
		begin := time.Now()
		took, err := fn()
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", name, err)
		}
		p.rec.add(p.root, name, i, begin, took)
		ns = append(ns, float64(took.Nanoseconds()))
		spent += took
	}
	return sortedCopy(ns), nil
}

// probeMin calls are made whatever they cost, so a median exists.
const probeMin = 5

// timed adapts a plain call to probe's shape.
func timed(fn func() error) func() (time.Duration, error) {
	return func() (time.Duration, error) {
		begin := time.Now()
		err := fn()
		return time.Since(begin), err
	}
}

// median-of-probe reporters for the units in use.
func (p *prober) us(name string, fn func() (time.Duration, error)) error {
	return p.report(name, "us", 1e3, fn)
}

func (p *prober) ms(name string, fn func() (time.Duration, error)) error {
	return p.report(name, "ms", 1e6, fn)
}

func (p *prober) report(name, unit string, nsPerUnit float64, fn func() (time.Duration, error)) error {
	ns, err := p.probe(name, fn)
	if err != nil {
		return err
	}
	p.out.put(name, quantile(ns, 50)/nsPerUnit, unit, len(ns))
	return nil
}

// allocKB reports the bytes a call allocates, in KB.
func allocKB(fn func() error) (float64, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	err := fn()
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / 1e3, err
}

// runProbes fills p.out with every probe-sourced layer metric.
func (p *prober) runProbes() error {
	var err error
	if p.payload, err = types.Marshal(p.kit.datum); err != nil {
		return err
	}
	for _, group := range []func() error{
		p.controllerLayer, p.graphLayers, p.dataLayers, p.wireLayers,
		p.serviceLayer, p.overlayLayers, p.computeLayers,
	} {
		if err := group(); err != nil {
			return err
		}
	}
	return nil
}

func (p *prober) donorIDs() []string {
	ids := make([]string, len(p.g.donors))
	for i, d := range p.g.donors {
		ids[i] = d.PeerID()
	}
	return ids
}

// --- controller, policy, health --------------------------------------------

func (p *prober) controllerLayer() error {
	ctl, tracker, ids := p.g.ctl, p.g.ctl.Service().Health(), p.donorIDs()
	if err := p.us("controller.select_us", timed(func() error {
		peers := p.g.pool.ShardPeers("tenant/t0/farm/1")
		cand := make([]string, len(peers))
		for i, ref := range peers {
			cand[i] = ref.ID
		}
		tracker.Rank(cand)
		return nil
	})); err != nil {
		return err
	}
	if err := p.ms("controller.discover_ms", timed(func() error {
		_, err := ctl.DiscoverPeers(controller.RunOptions{})
		return err
	})); err != nil {
		return err
	}
	if err := p.us("health.rank_us", timed(func() error {
		tracker.Rank(ids)
		return nil
	})); err != nil {
		return err
	}
	wf := p.kit.workflow
	const group = "SearchGroup"
	pol, err := policy.New(policy.NameParallel)
	if err != nil {
		return err
	}
	return p.us("policy.plan_us", func() (time.Duration, error) {
		annotated := wf.Clone()
		begin := time.Now()
		plan, err := pol.Plan(annotated.Find(group), ids)
		if err == nil {
			err = policy.Annotate(annotated, group, plan)
		}
		return time.Since(begin), err
	})
}

// --- taskgraph ---------------------------------------------------------------

func (p *prober) graphLayers() error {
	body := p.kit.body()
	if err := p.us("taskgraph.xml_us", timed(func() error {
		b, err := body.EncodeXML()
		if err == nil {
			_, err = taskgraph.ParseXML(b)
		}
		return err
	})); err != nil {
		return err
	}
	return p.us("taskgraph.clone_us", timed(func() error {
		body.Clone()
		return nil
	}))
}

// --- types, chunkstore -------------------------------------------------------

func (p *prober) dataLayers() error {
	datum := p.kit.datum
	if err := p.us("types.marshal_us", timed(func() error {
		_, err := types.Marshal(datum)
		return err
	})); err != nil {
		return err
	}
	if err := p.us("types.unmarshal_us", timed(func() error {
		_, err := types.Unmarshal(p.payload)
		return err
	})); err != nil {
		return err
	}
	var digest string
	if err := p.us("chunkstore.digest_us", timed(func() error {
		var err error
		digest, _, err = chunkstore.DigestData(datum)
		return err
	})); err != nil {
		return err
	}
	// A manifest as the controller sends it: one item per chunk datum,
	// each with both ring replicas and the full complement of peer hints.
	man := &chunkstore.Manifest{Origin: p.g.ctl.Service().Addr()}
	for range p.kit.chunk {
		man.Items = append(man.Items, chunkstore.Item{
			Digest: digest, Ring: p.g.superAddrs,
			Peers: []string{p.g.donors[0].Addr(), p.g.donors[1].Addr(), p.g.donors[2].Addr()},
		})
	}
	if err := p.us("chunkstore.manifest_us", timed(func() error {
		_, err := chunkstore.DecodeManifest(chunkstore.EncodeManifest(man))
		return err
	})); err != nil {
		return err
	}
	// A private registry keeps the probe's store out of the counters the
	// grid's stores report.
	store := chunkstore.New(chunkstore.Options{Owner: "probe", Registry: metrics.NewRegistry()})
	return p.us("chunkstore.put_get_us", timed(func() error {
		store.Put(digest, p.payload)
		if _, ok := store.Get(digest); !ok {
			return fmt.Errorf("chunk missing after Put")
		}
		return nil
	}))
}

// --- jxtaserve ---------------------------------------------------------------

const echoMethod = "bench.echo"

// echoHost starts a bare pipe host that answers echoMethod, on the
// production mux over the given transport. stop closes it.
func echoHost(id string, tr jxtaserve.Transport, addr string) (h *jxtaserve.Host, stop func(), err error) {
	mux := jxtaserve.NewMux(tr, wire)
	if h, err = jxtaserve.NewHost(id, mux, addr); err != nil {
		mux.Close()
		return nil, nil, err
	}
	h.Handle(echoMethod, func(req *jxtaserve.Message) (*jxtaserve.Message, error) {
		return &jxtaserve.Message{Payload: req.Payload}, nil
	})
	// After the host, as service.Close does: the host unblocks the
	// readers, then the mux kills the sessions they rode on.
	return h, func() { h.Close(); mux.Close() }, nil
}

// echoPair times a small request between two fresh hosts on one
// transport, then runs also, if given, between the same two.
func (p *prober) echoPair(name string, tr jxtaserve.Transport, addr string, also func(a, b *jxtaserve.Host) error) error {
	a, stopA, err := echoHost("probe-a", tr, addr)
	if err != nil {
		return err
	}
	defer stopA()
	b, stopB, err := echoHost("probe-b", tr, addr)
	if err != nil {
		return err
	}
	defer stopB()
	if err := p.us(name, timed(func() error {
		_, err := a.Request(b.Addr(), echoMethod, []byte("ping"), nil)
		return err
	})); err != nil || also == nil {
		return err
	}
	return also(a, b)
}

func (p *prober) wireLayers() error {
	// One frame holding one workload datum, as a pipe carries it.
	frame := &jxtaserve.Message{Kind: jxtaserve.KindPipeData, Payload: p.payload, Stream: 3}
	var buf bytes.Buffer
	if err := jxtaserve.WriteBinaryMessage(&buf, frame); err != nil {
		return err
	}
	p.frameBytes = buf.Len()
	if err := p.us("jxtaserve.codec_us", timed(func() error {
		buf.Reset()
		if err := jxtaserve.WriteBinaryMessage(&buf, frame); err != nil {
			return err
		}
		_, err := jxtaserve.ReadBinaryMessage(&buf)
		return err
	})); err != nil {
		return err
	}
	if err := p.us("jxtaserve.codec_xml_us", timed(func() error {
		buf.Reset()
		if err := jxtaserve.WriteMessage(&buf, frame); err != nil {
			return err
		}
		_, err := jxtaserve.ReadMessage(&buf)
		return err
	})); err != nil {
		return err
	}

	if err := p.echoPair("jxtaserve.rpc_rtt_us", jxtaserve.TCP{}, loopback, p.pipeProbe); err != nil {
		return err
	}
	if err := p.echoPair("jxtaserve.rpc_rtt_inproc_us", jxtaserve.NewInProc(), "", nil); err != nil {
		return err
	}

	// First request to a host never dialled before: connect, hello,
	// negotiate, then the round trip.
	a, stopA, err := echoHost("probe-dialler", jxtaserve.TCP{}, loopback)
	if err != nil {
		return err
	}
	defer stopA()
	return p.us("jxtaserve.dial_us", func() (time.Duration, error) {
		b, stopB, err := echoHost("probe-fresh", jxtaserve.TCP{}, loopback)
		if err != nil {
			return 0, err
		}
		defer stopB()
		begin := time.Now()
		_, err = a.Request(b.Addr(), echoMethod, []byte("ping"), nil)
		return time.Since(begin), err
	})
}

// pipeProbe times one virtual pipe's life between two hosts: open the
// input end, bind the output end, send one chunk, close, drain.
func (p *prober) pipeProbe(a, b *jxtaserve.Host) error {
	n := 0
	return p.us("jxtaserve.pipe_us", timed(func() error {
		n++
		in, ad, err := b.OpenInput(fmt.Sprintf("probe/pipe/%d", n), len(p.kit.chunk)+1)
		if err != nil {
			return err
		}
		defer in.Close()
		in.ExpectEOFs(1)
		out, err := a.BindOutput(ad)
		if err != nil {
			return err
		}
		for _, d := range p.kit.chunk {
			if err := out.Send(d); err != nil {
				out.Close()
				return err
			}
		}
		if err := out.Close(); err != nil {
			return err
		}
		got := 0
		for range in.C {
			got++
		}
		if got != len(p.kit.chunk) {
			return fmt.Errorf("pipe delivered %d of %d items", got, len(p.kit.chunk))
		}
		return nil
	}))
}

// --- service, discovery ------------------------------------------------------

// despatchOnce is one part's whole life through the public despatch API,
// with no farm loop around it: despatch, feed, collect, wait.
func (p *prober) despatchOnce(n int) error {
	ctl := p.g.ctl.Service()
	prefix := fmt.Sprintf("probe/despatch/%d", n)
	sink, _, err := ctl.Host().OpenInput(prefix+"/out", len(p.kit.chunk)+1)
	if err != nil {
		return err
	}
	defer sink.Close()
	sink.ExpectEOFs(1)
	donor := p.g.donors[0]
	job, err := ctl.Despatch(service.RemotePart{
		Peer:       service.PeerRef{ID: donor.PeerID(), Addr: donor.Addr()},
		Body:       p.kit.body(),
		InLabels:   []string{prefix + "/in"},
		OutTargets: []service.PipeTarget{{Label: prefix + "/out", Addr: ctl.Addr()}},
		Iterations: 1,
	}, ctl.Addr())
	if err != nil {
		return err
	}
	feed, err := ctl.Host().BindOutput(job.InAds[0])
	if err != nil {
		return err
	}
	for _, d := range p.kit.chunk {
		if err := feed.Send(d); err != nil {
			feed.Close()
			return err
		}
	}
	if err := feed.Close(); err != nil {
		return err
	}
	got := 0
	for range sink.C {
		got++
	}
	if _, err := ctl.WaitRemote(job); err != nil {
		return err
	}
	if got != len(p.kit.chunk) {
		return fmt.Errorf("despatched part returned %d of %d items", got, len(p.kit.chunk))
	}
	return nil
}

func (p *prober) serviceLayer() error {
	n := 0
	if err := p.ms("service.despatch_ms", timed(func() error {
		n++
		return p.despatchOnce(n)
	})); err != nil {
		return err
	}

	// A donor's life, stage by stage. Each sample is a fresh daemon, so
	// the count stays small: a closed peer's memory is not all released.
	lives := p.size.donorLives
	var newMS, newKB, advUS, drainMS []float64
	for i := 0; i < lives; i++ {
		var d *service.Service
		var begin time.Time
		var born time.Duration
		kb, err := allocKB(func() (err error) {
			begin = time.Now()
			d, err = p.g.newDonor(fmt.Sprintf("probe-donor-%d", joinerSeq.Add(1)))
			born = time.Since(begin)
			return err
		})
		if err != nil {
			return err
		}
		p.rec.add(p.root, "service.new_ms", i, begin, born)
		newKB = append(newKB, kb)

		begin = time.Now()
		err = d.Advertise(advertTTL)
		adv := time.Since(begin)
		if err != nil {
			d.Close()
			return err
		}
		p.rec.add(p.root, "service.advertise_us", i, begin, adv)
		advUS = append(advUS, adv.Seconds()*1e6)

		begin = time.Now()
		<-d.BeginDrain(churnTimeout)
		drain := time.Since(begin)
		p.rec.add(p.root, "service.drain_ms", i, begin, drain)
		drainMS = append(drainMS, drain.Seconds()*1e3)

		// A daemon's cost is its start plus its stop.
		begin = time.Now()
		d.Close()
		newMS = append(newMS, (born+time.Since(begin)).Seconds()*1e3)
	}
	p.out.put("service.new_ms", median(newMS), "ms", lives)
	p.out.put("service.new_alloc_kb", median(newKB), "KB", lives)
	p.out.put("service.advertise_us", median(advUS), "us", lives)
	p.out.put("service.drain_ms", median(drainMS), "ms", lives)

	host, err := jxtaserve.NewHost("probe-disc", jxtaserve.NewInProc(), "")
	if err != nil {
		return err
	}
	defer host.Close()
	var nodeKB []float64
	for i := 0; i < probeMin; i++ {
		kb, _ := allocKB(func() error {
			discovery.NewNode(host, advert.NewCache(), discovery.Config{})
			return nil
		})
		nodeKB = append(nodeKB, kb)
	}
	p.out.put("discovery.new_node_alloc_kb", median(nodeKB), "KB", len(nodeKB))
	return nil
}

// --- overlay, capgroup, advert -----------------------------------------------

func (p *prober) overlayLayers() error {
	cl := p.g.ctl.Service().Overlay()
	// A module advert: no pool subscription matches it, so the probe's
	// writes disturb nothing the controller holds.
	ad := &advert.Advertisement{
		Kind: advert.KindModule, ID: "probe/module", PeerID: "controller",
		Name: "bench.probe.Unit", Version: "1", Addr: p.g.ctl.Service().Addr(),
	}
	const sub = "probe-sub"
	events, err := cl.Subscribe(sub, advert.Query{Kind: advert.KindModule, Name: ad.Name})
	if err != nil {
		return err
	}
	defer cl.Unsubscribe(sub)
	// await waits for the push that reports the write just made.
	await := func(retracted bool) error {
		timeout := time.After(churnTimeout)
		for {
			select {
			case ev := <-events:
				if ev.ID == ad.ID && ev.Retracted == retracted {
					return nil
				}
			case <-timeout:
				return fmt.Errorf("no push for %s within %v", ad.ID, churnTimeout)
			}
		}
	}
	var publishUS, notifyUS, retractUS []float64
	var spent time.Duration
	for i := 0; i < p.size.probeCalls && (i < probeMin || spent < 2*p.size.probeBudget); i++ {
		begin := time.Now()
		if err := cl.Publish(ad); err != nil {
			return err
		}
		acked := time.Since(begin)
		if err := await(false); err != nil {
			return err
		}
		pushed := time.Since(begin)
		p.rec.add(p.root, "overlay.publish_us", i, begin, acked)
		p.rec.add(p.root, "overlay.notify_us", i, begin, pushed)

		begin = time.Now()
		if err := cl.Retract(ad.ID); err != nil {
			return err
		}
		if err := await(true); err != nil {
			return err
		}
		gone := time.Since(begin)
		p.rec.add(p.root, "overlay.retract_visible_us", i, begin, gone)

		publishUS = append(publishUS, acked.Seconds()*1e6)
		notifyUS = append(notifyUS, pushed.Seconds()*1e6)
		retractUS = append(retractUS, gone.Seconds()*1e6)
		spent += pushed + gone
	}
	p.out.put("overlay.publish_us", median(publishUS), "us", len(publishUS))
	p.out.put("overlay.notify_us", median(notifyUS), "us", len(notifyUS))
	p.out.put("overlay.retract_visible_us", median(retractUS), "us", len(retractUS))

	query := advert.Query{Kind: advert.KindService, Name: service.ServiceType}
	if err := p.us("overlay.query_us", timed(func() error {
		_, err := cl.Query(query, 0)
		return err
	})); err != nil {
		return err
	}
	// Too short to time singly: a thousand lookups per sample.
	const lookups = 1000
	ring := overlay.NewRing(0, p.g.superAddrs...)
	ns, err := p.probe("overlay.ring_owners_ns", timed(func() error {
		for i := 0; i < lookups; i++ {
			ring.Owners("service/triana", 2)
		}
		return nil
	}))
	if err != nil {
		return err
	}
	p.out.put("overlay.ring_owners_ns", quantile(ns, 50)/lookups, "ns", len(ns)*lookups)

	index, req := p.g.pool.GroupIndex(), map[string]string{capgroup.KeyCPUClass: capgroup.CPUClass(2000)}
	if err := p.us("capgroup.match_us", timed(func() error {
		if len(index.MatchAll(req)) == 0 {
			return fmt.Errorf("no capability group matches %v", req)
		}
		return nil
	})); err != nil {
		return err
	}
	svcAd := p.g.donors[0].ServiceAdvert(advertTTL)
	return p.us("advert.codec_us", timed(func() error {
		b, err := svcAd.MarshalText()
		if err != nil {
			return err
		}
		return new(advert.Advertisement).UnmarshalText(b)
	}))
}

// --- engine, dsp -------------------------------------------------------------

func (p *prober) computeLayers() error {
	body := p.kit.body()
	execs := func() float64 { return readRegistry()["engine_unit_exec_seconds_count"] }
	before, runs := execs(), 0
	if err := p.ms("engine.run_ms", timed(func() error {
		runs++
		in := make(chan types.Data, len(p.kit.chunk))
		out := make(chan types.Data, len(p.kit.chunk)+1)
		for _, d := range p.kit.chunk {
			in <- d
		}
		close(in)
		_, err := engine.Run(context.Background(), body, engine.Options{
			Iterations:  1,
			ExternalIn:  map[int]<-chan types.Data{0: in},
			ExternalOut: map[int]chan<- types.Data{0: out},
		})
		return err
	})); err != nil {
		return err
	}
	p.unitExecsPerRun = (execs() - before) / float64(runs)

	const n = 16384
	x := make([]complex128, n)
	if err := p.us("dsp.fft_16k_us", func() (time.Duration, error) {
		for i := range x {
			x[i] = complex(float64(i%17), 0)
		}
		begin := time.Now()
		dsp.FFT(x)
		return time.Since(begin), nil
	}); err != nil {
		return err
	}
	// The inspiral search's kernel at its own sizes.
	noise := dsp.GaussianNoise(n, 1, rand.New(rand.NewSource(1)))
	bank := dsp.TemplateBank(16, 2048, 40, 200, 400, 2000)
	return p.ms("dsp.xcorr_bank_ms", timed(func() error {
		_, err := dsp.CrossCorrelateBank(context.Background(), noise, bank)
		return err
	}))
}
