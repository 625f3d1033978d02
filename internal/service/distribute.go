package service

import (
	"context"
	"fmt"
	"strconv"
	"sync"

	"consumergrid/internal/advert"
	"consumergrid/internal/engine"
	"consumergrid/internal/jxtaserve"
	"consumergrid/internal/policy"
	"consumergrid/internal/sandbox"
	"consumergrid/internal/taskgraph"
	"consumergrid/internal/trace"
	"consumergrid/internal/types"
)

// PeerRef identifies a remote Triana service.
type PeerRef struct {
	ID   string
	Addr string
}

// PipeTarget names a downstream input pipe a remote part must bind to.
type PipeTarget struct {
	Label string
	Addr  string
}

// RemotePart is one subgraph to ship to one peer.
type RemotePart struct {
	Peer PeerRef
	// Body is the subgraph, with ExternalIn/ExternalOut endpoints set.
	Body *taskgraph.Graph
	// InLabels names the pipe each external input listens on (aligned
	// with Body.ExternalIn). InEOFs[i] is the number of producers that
	// will bind to input i (defaults to 1 when nil).
	InLabels []string
	InEOFs   []int
	// OutTargets names where each external output sends (aligned with
	// Body.ExternalOut).
	OutTargets []PipeTarget
	Iterations int
	Seed       int64
	// RestoreState re-primes checkpointable units before the run (keyed
	// by task name): despatching with the state captured from another
	// peer is the migration mechanism of §3.6.2.
	RestoreState map[string][]byte
	// Tenant identifies whose farm this part belongs to. It travels in
	// the run envelope so the hosting peer's spans and metrics carry the
	// same identity; empty means DefaultTenant.
	Tenant string
	// Group is the capability group the part was despatched within; it
	// lands on the despatch span so traces show which electorate the
	// part belonged to. Empty means the despatch was not group-scoped.
	Group string
}

// RemoteJob is a despatched part awaiting completion.
type RemoteJob struct {
	Part  RemotePart
	JobID string
	// InAds are the remote service's input-pipe advertisements, aligned
	// with Part.InLabels; upstream producers bind to them.
	InAds []*advert.Advertisement
	// TraceID and despatchSpan carry the despatch trace context so the
	// result-collection span joins the same tree.
	TraceID      string
	despatchSpan string
	// ChunkCapable records that the hosting peer advertised the
	// content-addressed data tier in its run reply; a capable controller
	// may send this job chunk manifests instead of streamed payloads.
	ChunkCapable bool
}

// Despatch ships a part to its peer: the remote service fetches modules
// from codeAddr (empty disables on-demand code), opens its input pipes
// and binds its outputs. It returns the job reference carrying the input
// adverts. Unreachable peers are retried per the resilience policy;
// because triana.run is not idempotent, only dial failures retry — a
// conversation that broke after the request was sent fails immediately
// rather than risk despatching the part twice.
func (s *Service) Despatch(part RemotePart, codeAddr string) (*RemoteJob, error) {
	return s.despatchCtx(context.Background(), part, codeAddr)
}

func (s *Service) despatchCtx(ctx context.Context, part RemotePart, codeAddr string) (*RemoteJob, error) {
	if len(part.InLabels) != len(part.Body.ExternalIn) {
		return nil, fmt.Errorf("service: %d in labels for %d external inputs",
			len(part.InLabels), len(part.Body.ExternalIn))
	}
	if len(part.OutTargets) != len(part.Body.ExternalOut) {
		return nil, fmt.Errorf("service: %d out targets for %d external outputs",
			len(part.OutTargets), len(part.Body.ExternalOut))
	}
	xmlBytes, err := part.Body.EncodeXML()
	if err != nil {
		return nil, err
	}
	// Root span of the despatch lifecycle; the transfer child brackets
	// the wire exchange and its IDs travel in the request envelope so the
	// hosting peer's execute span links into the same trace.
	despatch := s.tracer.Start("", "", "despatch", s.opts.PeerID)
	despatch.SetAttr("to", part.Peer.ID)
	if part.Tenant != "" {
		despatch.SetAttr("tenant", part.Tenant)
	}
	if part.Group != "" {
		despatch.SetAttr("capgroup", part.Group)
	}
	defer despatch.End()
	xfer := s.tracer.Start(despatch.TraceID(), despatch.SpanID(), "transfer", s.opts.PeerID)
	payload := encodeRunPayload(xmlBytes, part.RestoreState)
	headers := map[string]string{
		"iterations": strconv.Itoa(part.Iterations),
		"seed":       strconv.FormatInt(part.Seed, 10),
		"in.count":   strconv.Itoa(len(part.InLabels)),
		"out.count":  strconv.Itoa(len(part.OutTargets)),
	}
	if codeAddr != "" {
		headers["codeAddr"] = codeAddr
	}
	if part.Tenant != "" {
		headers["tenant"] = part.Tenant
	}
	for i, label := range part.InLabels {
		headers[fmt.Sprintf("in.%d.label", i)] = label
		if i < len(part.InEOFs) && part.InEOFs[i] > 0 {
			headers[fmt.Sprintf("in.%d.eofs", i)] = strconv.Itoa(part.InEOFs[i])
		}
	}
	for i, tgt := range part.OutTargets {
		headers[fmt.Sprintf("out.%d.label", i)] = tgt.Label
		headers[fmt.Sprintf("out.%d.addr", i)] = tgt.Addr
	}
	trace.Inject(xfer, func(k, v string) { headers[k] = v })
	reply, err := s.requestRetry(ctx, part.Peer.Addr, MethodRun, payload, headers,
		false, s.res.RequestTimeout)
	xfer.Fail(err)
	xfer.End()
	if err != nil {
		despatchFailures.Inc()
		err = fmt.Errorf("service: despatch to %s: %w", part.Peer.ID, err)
		despatch.Fail(err)
		return nil, err
	}
	ads, err := advert.DecodeList(reply.Payload)
	if err != nil {
		despatch.Fail(err)
		return nil, err
	}
	if len(ads) != len(part.InLabels) {
		err = fmt.Errorf("service: peer %s returned %d pipe adverts for %d inputs",
			part.Peer.ID, len(ads), len(part.InLabels))
		despatch.Fail(err)
		return nil, err
	}
	despatchesTotal.Inc()
	despatch.SetAttr("job", reply.Header("job"))
	return &RemoteJob{
		Part: part, JobID: reply.Header("job"), InAds: ads,
		TraceID: despatch.TraceID(), despatchSpan: despatch.SpanID(),
		ChunkCapable: reply.Header(capChunkstore) != "",
	}, nil
}

// WaitRemote blocks until a despatched job completes, returning its
// per-task processed counts.
func (s *Service) WaitRemote(job *RemoteJob) (map[string]int, error) {
	counts, _, err := s.WaitRemoteState(job)
	return counts, err
}

// WaitRemoteState additionally returns the stateful units' checkpoints,
// ready to feed another Despatch's RestoreState — the migration handoff.
func (s *Service) WaitRemoteState(job *RemoteJob) (map[string]int, map[string][]byte, error) {
	return s.waitRemoteStateCtx(context.Background(), job)
}

// waitRemoteStateCtx is WaitRemoteState bounded by a context: the wait
// RPC blocks as long as the job runs (no per-attempt deadline), so the
// failure detector or attempt timeout cancels it through ctx. Waits are
// idempotent, so broken conversations retry.
func (s *Service) waitRemoteStateCtx(ctx context.Context, job *RemoteJob) (map[string]int, map[string][]byte, error) {
	span := s.tracer.Start(job.TraceID, job.despatchSpan, "result", s.opts.PeerID)
	span.SetAttr("job", job.JobID)
	defer span.End()
	reply, err := s.requestRetry(ctx, job.Part.Peer.Addr, MethodWait, nil,
		map[string]string{"job": job.JobID}, true, 0)
	if err != nil {
		span.Fail(err)
		return nil, nil, err
	}
	span.SetAttr("processed", reply.Header("processed"))
	counts := make(map[string]int)
	for k, v := range reply.Headers {
		if len(k) > 5 && k[:5] == "proc." {
			n, _ := strconv.Atoi(v)
			counts[k[5:]] = n
		}
	}
	var state map[string][]byte
	if len(reply.Payload) > 0 {
		if _, state, err = decodeRunPayload(reply.Payload); err != nil {
			return nil, nil, err
		}
	}
	return counts, state, nil
}

// CancelRemote cancels a despatched job. Cancels are idempotent and
// retried with a per-attempt deadline.
func (s *Service) CancelRemote(job *RemoteJob) error {
	_, err := s.requestRetry(context.Background(), job.Part.Peer.Addr, MethodCancel, nil,
		map[string]string{"job": job.JobID}, true, s.res.RequestTimeout)
	return err
}

// --- distributed group execution ---------------------------------------------

// DistOptions configures RunDistributed.
type DistOptions struct {
	// Iterations drives the local sources.
	Iterations int
	Seed       int64
	// CodeAddr is the module owner the remote peers fetch from; empty
	// uses this service's own address (it serves every registered unit).
	CodeAddr string
	// Sandbox for the local portion; nil = service default.
	Sandbox *sandbox.Sandbox
	// PipeBuffer is the local input-pipe depth (default 8).
	PipeBuffer int
}

// DistResult reports a distributed run.
type DistResult struct {
	// Local is the engine result for the locally-executed portion.
	Local *engine.Result
	// Remote maps peer ID -> per-task processed counts.
	Remote map[string]map[string]int
}

// RunDistributed executes graph g whose named group is distributed per
// plan across the given peers: the client-component behaviour of §3.5
// ("the group being distributed is extracted from the workflow and sent
// to the remote Triana service", with uniquely-labelled boundary
// connections mapped to pipes). Parallel plans replicate the group body
// on every replica peer and farm data items round-robin; pipeline plans
// place each member on its own peer, chained by pipes.
func (s *Service) RunDistributed(ctx context.Context, g *taskgraph.Graph, groupName string,
	plan *policy.Plan, peers map[string]PeerRef, opts DistOptions) (*DistResult, error) {
	if opts.Iterations < 1 {
		return nil, fmt.Errorf("service: Iterations must be >= 1")
	}
	if opts.PipeBuffer <= 0 {
		opts.PipeBuffer = 8
	}
	if opts.CodeAddr == "" {
		opts.CodeAddr = s.Addr()
	}
	if plan.Kind == policy.KindLocal {
		res, err := s.RunLocal(ctx, g, engine.Options{
			Iterations: opts.Iterations, Seed: opts.Seed, Sandbox: opts.Sandbox,
		})
		if err != nil {
			return nil, err
		}
		return &DistResult{Local: res, Remote: map[string]map[string]int{}}, nil
	}

	work := g.Clone()
	// Namespace every pipe label with a per-service run counter so a
	// single controller can drive multiple applications — or repeated
	// runs of the same application — concurrently (§3.2: "A single Triana
	// controller can control multiple Triana networks").
	runID := s.nextRunID.Add(1)
	work.AssignLabels(fmt.Sprintf("app/%s/run%d", work.Name, runID))
	gt := work.Find(groupName)
	if gt == nil || !gt.IsGroup() {
		return nil, fmt.Errorf("service: %q is not a group task", groupName)
	}
	inLabels, outLabels, err := work.BoundaryLabels(groupName)
	if err != nil {
		return nil, err
	}
	body := gt.Group

	// Record the local boundary endpoints before removing the group:
	// producers feeding the group become local external outputs, and
	// consumers fed by the group become local external inputs.
	prodEnds := make([]taskgraph.Endpoint, gt.In)  // index: group input node
	consEnds := make([]taskgraph.Endpoint, gt.Out) // index: group output node
	for _, c := range work.Connections {
		if c.Control {
			continue
		}
		if c.To.Task == groupName {
			prodEnds[c.To.Node] = c.From
		}
		if c.From.Task == groupName {
			consEnds[c.From.Node] = c.To
		}
	}
	work.Remove(groupName)
	work.ExternalOut = prodEnds
	work.ExternalIn = consEnds

	// Open local input pipes for the group's outputs; every remote
	// producer of output k binds to local pipe outLabels[k]. The expected
	// EOF count is armed after despatch, once the surviving replica count
	// is known.
	localPipes := make([]*jxtaserve.InputPipe, gt.Out)
	extIn := make(map[int]<-chan types.Data, gt.Out)
	closeLocalPipes := func() {
		for _, p := range localPipes {
			if p != nil {
				p.Close()
			}
		}
	}
	for k := 0; k < gt.Out; k++ {
		pipe, _, err := s.host.OpenInput(outLabels[k], opts.PipeBuffer)
		if err != nil {
			closeLocalPipes()
			return nil, err
		}
		localPipes[k] = pipe
		extIn[k] = pipe.C
	}

	// Despatch the remote parts and learn their input-pipe adverts.
	var jobs []*RemoteJob
	// inputAds[j] lists, per group input node j, the remote input pipes
	// the local side must feed (one per replica for parallel; exactly one
	// for pipeline).
	inputAds := make([][]*advert.Advertisement, gt.In)
	producersPerOutput := 1
	switch plan.Kind {
	case policy.KindParallel:
		outTargets := make([]PipeTarget, gt.Out)
		for k := range outTargets {
			outTargets[k] = PipeTarget{Label: outLabels[k], Addr: s.Addr()}
		}
		// Failover: a replica that refuses or cannot be reached (gone
		// offline, owner active, not certified) is skipped, per §3.6.2:
		// "simply distributing the code to as many computers that are
		// available". Two passes: usable replicas first — one whose
		// circuit breaker is open is skipped without touching the network
		// — and the gated rest only if nobody accepted. A gated replica
		// is a better bet than failing the run: its breaker reflects
		// stale RPC history, not the despatch about to be attempted, and
		// under churn an idle-but-gated donor is often the only one left.
		// The run fails only when no replica accepts.
		var despatchErr error
		tried := make([]bool, len(plan.Replicas))
		for pass := 0; pass < 2 && len(jobs) == 0; pass++ {
			for r, peerID := range plan.Replicas {
				if _, ok := peers[peerID]; !ok {
					closeLocalPipes()
					return nil, fmt.Errorf("service: plan names unknown peer %q", peerID)
				}
				if tried[r] {
					continue
				}
				if pass == 0 && !s.health.Usable(peerID) {
					s.logf("service: replica %s breaker open, skipping", peerID)
					continue
				}
				tried[r] = true
				// The replica index, not the try order, fixes labels and seed.
				job, err := s.Despatch(RemotePart{
					Peer:       peers[peerID],
					Body:       body.Clone(),
					InLabels:   replicaLabels(inLabels, r),
					OutTargets: outTargets,
					Iterations: opts.Iterations,
					Seed:       opts.Seed + int64(r)*1000003,
				}, opts.CodeAddr)
				if err != nil {
					despatchErr = err
					s.health.ReportFailure(peerID)
					s.logf("service: replica %s unavailable, skipping: %v", peerID, err)
					continue
				}
				s.health.ReportSuccess(peerID, 0)
				jobs = append(jobs, job)
				for j := range inLabels {
					inputAds[j] = append(inputAds[j], job.InAds[j])
				}
			}
		}
		if len(jobs) == 0 {
			closeLocalPipes()
			return nil, fmt.Errorf("service: no replica accepted the group: %w", despatchErr)
		}
		producersPerOutput = len(jobs)
	case policy.KindPipeline:
		jobsByStage, err := s.despatchPipeline(body, plan, peers, inLabels, outLabels, opts)
		if err != nil {
			closeLocalPipes()
			return nil, err
		}
		jobs = jobsByStage.jobs
		for j := range inLabels {
			ad, ok := jobsByStage.groupInputAds[j]
			if !ok {
				closeLocalPipes()
				return nil, fmt.Errorf("service: group input %d not bound by any stage", j)
			}
			inputAds[j] = []*advert.Advertisement{ad}
		}
	default:
		closeLocalPipes()
		return nil, fmt.Errorf("service: unsupported plan kind %v", plan.Kind)
	}
	for _, pipe := range localPipes {
		pipe.ExpectEOFs(producersPerOutput)
	}

	// Bind local outputs to the remote input pipes and bridge channels.
	extOut := make(map[int]chan<- types.Data, gt.In)
	var bridgeWG sync.WaitGroup
	var bridgeErr error
	var bridgeMu sync.Mutex
	// bridgeQuit releases the bridges once the engine has returned or a
	// later bind failed: an engine that errors out early never closes its
	// external outputs, and a bridge blocked on `range ch` would leak.
	bridgeQuit := make(chan struct{})
	var bridgeQuitOnce sync.Once
	stopBridges := func() {
		bridgeQuitOnce.Do(func() { close(bridgeQuit) })
		bridgeWG.Wait()
	}
	for j := 0; j < gt.In; j++ {
		var outs []*jxtaserve.OutputPipe
		for _, ad := range inputAds[j] {
			op, err := s.host.BindOutput(ad)
			if err != nil {
				for _, o := range outs {
					o.Close()
				}
				stopBridges()
				closeLocalPipes()
				return nil, fmt.Errorf("service: binding group input %d: %w", j, err)
			}
			outs = append(outs, op)
		}
		ch := make(chan types.Data, opts.PipeBuffer)
		extOut[j] = ch
		bridgeWG.Add(1)
		go func(ch chan types.Data, outs []*jxtaserve.OutputPipe) {
			defer bridgeWG.Done()
			defer func() {
				for _, op := range outs {
					op.Close()
				}
			}()
			i := 0
			// Round-robin across replicas; single target for pipelines.
			send := func(d types.Data) bool {
				op := outs[i%len(outs)]
				i++
				if err := op.Send(d); err != nil {
					bridgeMu.Lock()
					if bridgeErr == nil {
						bridgeErr = err
					}
					bridgeMu.Unlock()
					return false
				}
				return true
			}
			for {
				select {
				case d, ok := <-ch:
					if !ok {
						return
					}
					if !send(d) {
						// Drain so the engine never blocks, but give up
						// once it has exited.
						for {
							select {
							case _, ok := <-ch:
								if !ok {
									return
								}
							case <-bridgeQuit:
								return
							}
						}
					}
				case <-bridgeQuit:
					// Engine done; flush what it buffered before exiting.
					for {
						select {
						case d, ok := <-ch:
							if !ok {
								return
							}
							if !send(d) {
								return
							}
						default:
							return
						}
					}
				}
			}
		}(ch, outs)
	}

	// Run the local portion.
	sb := opts.Sandbox
	if sb == nil {
		sb = sandbox.New(s.opts.Sandbox)
	}
	local, runErr := engine.Run(ctx, work, engine.Options{
		Iterations:  opts.Iterations,
		Seed:        opts.Seed,
		Sandbox:     sb,
		Logf:        s.opts.Logf,
		ExternalIn:  extIn,
		ExternalOut: extOut,
	})
	stopBridges()

	// Collect the remote jobs (their inputs have seen EOF by now).
	remote := make(map[string]map[string]int, len(jobs))
	var waitErr error
	for _, job := range jobs {
		counts, err := s.WaitRemote(job)
		if err != nil && waitErr == nil {
			waitErr = err
		}
		if counts != nil {
			merged := remote[job.Part.Peer.ID]
			if merged == nil {
				merged = make(map[string]int)
				remote[job.Part.Peer.ID] = merged
			}
			for task, n := range counts {
				merged[task] += n
			}
		}
	}
	closeLocalPipes()

	switch {
	case runErr != nil:
		return nil, runErr
	case waitErr != nil:
		return nil, waitErr
	default:
		bridgeMu.Lock()
		defer bridgeMu.Unlock()
		if bridgeErr != nil {
			return nil, bridgeErr
		}
	}
	return &DistResult{Local: local, Remote: remote}, nil
}

// replicaLabels namespaces the group-input pipe names per replica so the
// r-th replica's pipes are distinct even when hosted on the same peer
// (as happens in single-process tests and small networks).
func replicaLabels(labels []string, r int) []string {
	out := make([]string, len(labels))
	for i, l := range labels {
		out[i] = fmt.Sprintf("%s/r%d", l, r)
	}
	return out
}

// pipelineJobs carries despatchPipeline results.
type pipelineJobs struct {
	jobs []*RemoteJob
	// groupInputAds maps group input node -> the advert of the stage
	// input pipe that should receive it.
	groupInputAds map[int]*advert.Advertisement
}

// despatchPipeline ships each group member to its planned peer, in
// reverse flow order so every consumer's pipes exist before its producer
// despatches.
func (s *Service) despatchPipeline(body *taskgraph.Graph, plan *policy.Plan,
	peers map[string]PeerRef, inLabels, outLabels []string, opts DistOptions) (*pipelineJobs, error) {

	// Pre-compute stage boundary wiring from the body graph.
	type stageSpec struct {
		task *taskgraph.Task
		// ins: label per input node (either an internal connection label
		// or a group-input label); groupIn records which group input node
		// maps to which local input node.
		ins     []string
		groupIn map[int]int // stage input node -> group input node
		outs    []PipeTarget
	}
	specs := make(map[string]*stageSpec, len(plan.Stages))
	for _, name := range plan.Stages {
		t := body.Find(name)
		if t == nil {
			return nil, fmt.Errorf("service: plan stage %q not in group", name)
		}
		specs[name] = &stageSpec{
			task:    t,
			ins:     make([]string, t.In),
			groupIn: make(map[int]int),
			outs:    make([]PipeTarget, t.Out),
		}
	}
	// Internal connections: producer stage output -> consumer stage input.
	type pendingEdge struct {
		fromStage string
		fromNode  int
		label     string
	}
	var internalEdges []pendingEdge
	for _, c := range body.Connections {
		if c.Control {
			continue
		}
		if c.Label == "" {
			return nil, fmt.Errorf("service: unlabelled internal connection %s->%s", c.From, c.To)
		}
		cons, ok := specs[c.To.Task]
		if !ok {
			return nil, fmt.Errorf("service: connection to unplanned task %q", c.To.Task)
		}
		cons.ins[c.To.Node] = c.Label
		internalEdges = append(internalEdges, pendingEdge{c.From.Task, c.From.Node, c.Label})
	}
	// Group boundary mapping.
	for j, e := range body.ExternalIn {
		spec, ok := specs[e.Task]
		if !ok {
			return nil, fmt.Errorf("service: group input %d maps to unplanned task %q", j, e.Task)
		}
		spec.ins[e.Node] = inLabels[j]
		spec.groupIn[e.Node] = j
	}
	for k, e := range body.ExternalOut {
		spec, ok := specs[e.Task]
		if !ok {
			return nil, fmt.Errorf("service: group output %d maps to unplanned task %q", k, e.Task)
		}
		spec.outs[e.Node] = PipeTarget{Label: outLabels[k], Addr: s.Addr()}
	}

	result := &pipelineJobs{groupInputAds: make(map[int]*advert.Advertisement)}
	// Adverts of stage input pipes, by label, filled as stages despatch.
	adByLabel := make(map[string]*advert.Advertisement)

	for i := len(plan.Stages) - 1; i >= 0; i-- {
		name := plan.Stages[i]
		spec := specs[name]
		peerID := plan.Placement[name]
		ref, ok := peers[peerID]
		if !ok {
			return nil, fmt.Errorf("service: plan names unknown peer %q", peerID)
		}
		// Resolve internal out targets from already-despatched consumers.
		for node := range spec.outs {
			if spec.outs[node].Label != "" {
				continue // group output, already targeted at the local side
			}
			// Find the internal edge leaving this node.
			found := false
			for _, e := range internalEdges {
				if e.fromStage == name && e.fromNode == node {
					ad, ok := adByLabel[e.label]
					if !ok {
						return nil, fmt.Errorf("service: consumer pipe %q not yet despatched", e.label)
					}
					spec.outs[node] = PipeTarget{Label: ad.Name, Addr: ad.Addr}
					found = true
					break
				}
			}
			if !found {
				return nil, fmt.Errorf("service: stage %s output %d has no consumer", name, node)
			}
		}
		// Build the single-task body.
		sub := taskgraph.New(name)
		sub.Tasks = append(sub.Tasks, spec.task.Clone())
		for node := 0; node < spec.task.In; node++ {
			sub.ExternalIn = append(sub.ExternalIn, taskgraph.Endpoint{Task: name, Node: node})
		}
		for node := 0; node < spec.task.Out; node++ {
			sub.ExternalOut = append(sub.ExternalOut, taskgraph.Endpoint{Task: name, Node: node})
		}
		part := RemotePart{
			Peer:       ref,
			Body:       sub,
			InLabels:   spec.ins,
			OutTargets: spec.outs,
			Iterations: opts.Iterations,
			Seed:       opts.Seed,
		}
		job, err := s.Despatch(part, opts.CodeAddr)
		if err != nil {
			return nil, err
		}
		result.jobs = append(result.jobs, job)
		for node, ad := range job.InAds {
			adByLabel[spec.ins[node]] = ad
			if j, isGroupIn := spec.groupIn[node]; isGroupIn {
				result.groupInputAds[j] = ad
			}
		}
	}
	return result, nil
}
