# Convenience targets for the consumergrid repo. The go toolchain is the
# only dependency; everything routes through `go test`/`go run`.

GOFLAGS ?=

.PHONY: build test test-386 layering run-lists race race-resilience bench bench-smoke gridbench gridbench-compare metrics-smoke chaos-smoke overlay-smoke wire-conformance datastore-smoke tenant-smoke drain-smoke groups-smoke

build:
	go build ./...

test:
	go test ./...

# The short suite built for 32-bit x86: consumer donors include 32-bit
# ARM boards and handhelds (paper §3.7), where int is 32 bits and a
# plain int64 field need not be 8-byte aligned for sync/atomic.
test-386:
	GOARCH=386 go test -short ./...

# One discovery path: daemons discover only through the super-peer
# overlay, so internal/discovery (the T2/T6 baselines) must stay off the
# daemon, controller and core import graphs, and no daemon-side package
# may keep an advert.Cache beside the ring as a second discovery source.
# One code path: a module bundle is a chunk, so internal/mcode stays off
# the wire and the registry, and nothing outside bench/ names the old
# mcode.fetch RPC or an mcode_ series.
# No dead knobs: WireOptions.Mux/.Binary, DataTierOptions.Enable and
# RunOptions.PoolShards are ignored and DonorPool.ShardPeers is Peers;
# they stay for bench/ alone, so no other Go file may set or call them.
# One pure core: the chunk runner's step function (chunkstep.go) reads
# no clock, takes no context or lock and calls into no other package.
layering:
	@if go list -deps ./cmd/trianad ./cmd/trianactl ./internal/core ./internal/controller ./internal/service | grep -qx consumergrid/internal/discovery; then \
		echo "layering: internal/discovery is reachable from a daemon path; only internal/experiments may import it"; exit 1; \
	fi
	@if grep -rnE --include='*.go' 'advert\.(New)?Cache\b' internal/service internal/controller internal/core cmd; then \
		echo "layering: a daemon path references advert.Cache; Service.Discover answers from the ring alone"; exit 1; \
	fi
	@if go list -deps ./internal/mcode | grep -qxE 'consumergrid/internal/(jxtaserve|metrics)'; then \
		echo "layering: internal/mcode reaches jxtaserve or metrics; a bundle is content and travels through the chunk tier"; exit 1; \
	fi
	@if grep -rnE --include='*.go' --exclude-dir=bench 'mcode\.fetch|mcode_[a-z]' .; then \
		echo "layering: mobile code has no RPC or series of its own; bundles are counted by the chunk store"; exit 1; \
	fi
	@if grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=jxtaserve --exclude-dir=experiments 'jxtaserve\.NewHost\(.*jxtaserve\.TCP\{\}' cmd internal; then \
		echo "layering: a bare jxtaserve.TCP{} host speaks no session hello; wrap it in jxtaserve.NewMux"; exit 1; \
	fi
	@if grep -rnE --include='*.go' --exclude-dir=bench -e '\b(Mux|Binary|Enable|PoolShards):\s*\S' -e '\.(Mux|Binary|Enable|PoolShards)\s*=[^=]' -e '\.ShardPeers\(' . | grep -vE '\bcase\b'; then \
		echo "layering: an ignored option is set, or ShardPeers is called, outside bench/; the wire, the data tier and the donor pool have one mode each"; exit 1; \
	fi
	@if sed -n '/^import/,/^)/p' internal/service/chunkstep.go | grep -E '"(time|context|sync|sync/atomic)"|"consumergrid/internal/'; then \
		echo "layering: internal/service/chunkstep.go imports a clock, a context, a lock or an internal package; the chunk runner's step is pure"; exit 1; \
	fi

# The smoke targets below name their tests by hand. Every literal
# Test... name in a -run alternation must match a test `go test -list`
# finds in that line's packages: a renamed or deleted test would
# otherwise drop out of its list silently while the line still passes.
run-lists:
	./tools/run_lists.sh Makefile

# The bank reduction and the in-place element-wise units race their
# own workers and fan-out edges: every template visited once with the
# collecting path's values, paired templates matching the direct sum
# at any worker count, the matched filter's table and allocation
# bound, its per-process template bank shared by concurrent jobs, the
# injected chirp kept across items, and a sealed input left intact
# while an owned one is taken.
# Then the lazily built per-request state: the noise stream's golden
# digest, the replayed retry backoff and its first-attempt byte bound,
# and trace IDs minted from 16 goroutines, ten times over. Last, a
# super's stored replies racing its writes and a client's shared
# adverts racing its queries, pushes and publishes, ten times over.
race:
	go test -race ./internal/engine/... ./internal/jxtaserve/... ./internal/dsp/...
	go test -race ./internal/dsp/ ./internal/units/signal/ ./internal/units/mathx/ -run 'TestCrossCorrelateEach|TestMatchedFilterTableUnchanged|TestMatchedFilterAllocBound|TestMatchedFilterBankBuiltOncePerProcess|TestInjectChirpBuildsChirpOncePerRate|TestElementwisePreservesConcreteType|TestElementwiseInPlaceUnderFanOut|TestGaussianNoiseGolden' -count=1
	go test -race ./internal/service/ -run 'TestRetryJitterReplaysAndIsLazy' -count=1
	go test -race ./internal/trace/ -run 'TestNewIDFormatAndUniqueness' -count=10
	go test -race ./internal/overlay/ -run 'TestStoredRepliesUnderConcurrentWrites|TestClientConcurrentQueryNotifyPublish' -count=10

# Race detector over the concurrency-heavy resilience stack: the chunk
# runner, the health tracker, and the fault-injecting network — then the
# farm suites and the hosted-job lifecycle (reaping, waits after a job
# ended) three times over, since their interleavings differ run to run,
# beside the chunk runner's rules checked over every event order.
race-resilience:
	go test -race ./internal/service/... ./internal/simnet/... ./internal/health/...
	go test -race -count=3 ./internal/service/ -run 'Farm|Quorum|Speculat|Straggler|Chaos|Redespatch|Tenant|Group|HostedJob|WaitAfterEnd|TestChunkStepExhaustive'

# Full benchmark snapshot: runs the whole suite and writes BENCH_<date>.json,
# comparing against the previous snapshot.
bench:
	go run ./tools/benchreg -benchtime 300ms

# gridbench (BENCHMARK.json): the one end-to-end benchmark, every
# workload and metric. A refactor's no-regression check is one run on
# each commit and one compare:
#   make gridbench-compare A=<parent>/bench/out/result-1.json B=bench/out/result-1.json
gridbench:
	go run ./bench

gridbench-compare:
	go run ./bench -compare $(A) $(B)

# Short CI smoke: only the kernel + codec + fan-out hot paths, gated at a
# 25% ns/op regression against the committed snapshot.
bench-smoke:
	go run ./tools/benchreg \
		-bench 'BenchmarkKernel|BenchmarkCodec|BenchmarkEngineFanOut' \
		-gate 'BenchmarkKernelFFT|BenchmarkCodec' \
		-benchtime 100ms -threshold 0.25 -no-save

# Wire-protocol conformance: golden frames for both codecs and the
# session hello and keepalive, a short fuzz pass over the binary decoder
# and its round-trip target, the listener's refusal of any first frame
# but a v1 hello and its hang-up on a dialler that sends none in time,
# the dialler forgetting each departed peer's entry and failing every
# dial to a silent listener within the hello wait, session liveness (a
# silent peer's session dies, a busy one sends no keepalive, an idle
# one lives on them, a frame trickling in byte by byte keeps its
# session alive), and the mux invariants (FIFO, credit bounds, reset
# isolation, goroutine leaks) under the race detector; then the typed-data codec's golden encodings, its
# decode∘encode fixpoint counterexamples, its exact sizing (Size is
# the length Marshal writes) and a fuzz pass over that fixpoint, which
# checks the size too; and the triana.run payload codec's canonical-form tests and
# a fuzz pass asserting every accepted payload re-encodes to its bytes.
# Run with -update after a deliberate wire change to regenerate the
# golden fixtures.
wire-conformance:
	go test ./internal/jxtaserve/ -run 'TestGolden|TestMuxRefusesNonHello|TestMuxHangsUpSilentDialers|TestMuxForgetsDeadPeers|TestMuxDialBoundedBySilentListener|TestMuxSilentPeerDies|TestMuxBusySessionSendsNoKeepalive|TestMuxIdleSessionStaysAlive|TestMuxSlowFrameKeepsSessionAlive|TestReadBinaryMessageRejects' -count=1
	go test ./internal/jxtaserve/ -run '^$$' -fuzz FuzzReadBinaryMessage -fuzztime 10s
	go test ./internal/jxtaserve/ -run '^$$' -fuzz FuzzBinaryMessageRoundTrip -fuzztime 10s
	go test ./internal/types/ -run 'TestGolden|TestFixpoint|TestSizeMatchesMarshal' -count=1
	go test ./internal/types/ -run '^$$' -fuzz FuzzUnmarshal -fuzztime 10s
	go test ./internal/service/ -run 'TestRunPayload' -count=1
	go test ./internal/service/ -run '^$$' -fuzz FuzzDecodeRunPayload -fuzztime 10s
	go test -race ./internal/jxtaserve/ ./internal/simnet/ -run 'TestMux' -count=1

# Observability smoke: boot a real daemon, scrape /metrics, and assert
# the core series families are listed (they register eagerly, so a
# fresh daemon must already expose them), and that -pprof answers.
# Fails if the daemon dies, the scrape fails, any series family is
# missing, or pprof does not serve.
metrics-smoke:
	./tools/metrics_smoke.sh

# Content-addressed data tier: the whole chunkstore package (store,
# fetch ladder, manifest codec, pin release and restore), ring chunk
# placement (one copy asked, failover past a dead owner), a 10 s pass
# of the manifest decoder fuzzer, and the end-to-end farm battery —
# manifest despatch, the controller's egress under quorum bounded by
# one pass of the inputs plus the runs' manifests (about half the
# analytic cost of streaming to two voters a chunk), the peer fetch
# rung, the dead-replica chaos case, manifests naming only the ring
# owners that acked, tiny datums riding the manifest by value in the triana.run
# request, a manifest for a body without one input refused, an
# unresolvable manifest failing its job on the wait reply,
# a donor parsing a repeated body once, a mixed chunk
# putting only its by-reference digests, the controller dropping a
# farm's inputs when it ends (caching none of its outputs) and after a
# resumed restart, and the quorum output path (by-value and
# by-reference ballots in the wait reply, commit by fetch, fetch
# failure, each byte moved once), and an in-place farm unit leaving
# every chunk store's bytes intact. Then a short run of the egress
# benchmark so the controller's egress and ingress byte counts stay
# visible in CI logs.
datastore-smoke:
	go test ./internal/chunkstore/ -count=1
	go test ./internal/overlay/ -run 'TestPutChunk' -count=1
	go test ./internal/chunkstore/ -run '^$$' -fuzz FuzzDecodeManifest -fuzztime 10s
	go test ./internal/service/ -run 'TestFarmManifestDespatch|TestFarmEgressReduction|TestResolveManifestPeerRung|TestFarmSurvivesDeadChunkReplica|TestFarmManifestSkipsFailedRingOwner|TestFarmTinyDatumsTravelByValue|TestFarmMixedChunkPutsOnlyReferences|TestFarmReleaseDropsControllerInputs|TestRestoredPinsReleaseWithResumedFarm|TestResultDigestProperties|TestValueAndAddressBallotsAgree|TestWaitRefusesMiscountedResultList|TestBallotDigestSeesEveryFlippedBit|TestQuorumByzantineVoterCommitsByFetch|TestQuorumFetchFailureWidens|TestQuorumFarmOnSmallDonorCaches|TestQuorumFarmMovesEachByteOnce|TestManifestNeedsOneInputBody|TestUnresolvableManifestFailsOnWait|TestDonorParsesEachBodyOnce|TestInPlaceFarmUnitLeavesChunkStoreIntact|TestOnDemandCodeFetchHappens|TestRunRefusesVersionSkew|TestRunFailsWhenOwnerLacksBundle' -count=1 -v
	go test -run '^$$' -bench 'BenchmarkFarmEgress' -benchtime 5x .

# Multi-tenant despatch plane: the 3-tenant smoke scenario
# (concurrent equal-weight farms over one donor pool on a simnet grid, asserting
# Jain's fairness index >= 0.9 on admission grants and the presence of
# tenant-labelled metric families), the fair-share scheduler's own
# regression battery under -race (FIFO wake order, weighted shares,
# outcome exactness racing Close), the N-tenants × M-farms byzantine
# contention suite, the daemon flag-validation table, and the T7
# fairness experiment end to end.
tenant-smoke:
	go test ./internal/controller/ -run 'TestTenantSmoke' -count=1 -v
	go test -race ./internal/service/ -run 'TestAdmission|TestTenant' -count=1
	go test ./cmd/trianad/ ./internal/policy/ -run 'TestValidate|TestParseTenants|TestJain|TestWeightedJain' -count=1
	go test ./internal/experiments/ -run 'TestEveryExperimentRunsAndHoldsShape/T7' -count=1

# Deterministic byzantine chaos harness: seeded simnet with a corrupting
# peer and a dead peer, quorum voting (ballots in the wait reply,
# commit by fetch), breaker and score assertions via the metrics
# registry, and the majority-first electorate's exact books (K/2+1
# voters per clean chunk, one more per widening or replacement) for
# K = 2, 3, 5 under a corrupter, a dead voter and a split. Then the
# silent donor: simnet's Freeze, a donor frozen mid-chunk declared dead
# by its session's silence, a unit outlasting that detector on an
# idle session, a live donor withholding its result (recovered only by
# speculation, its abandoned attempt reaped within probeTimeout), a
# stopped donor's silent listener costing one hello wait, and a
# shutting-down controller judging no peer. Seeds are fixed, so a
# failure is reproducible.
chaos-smoke:
	go test ./internal/service/ -run 'TestChaos|TestFarmSkipsDeclaredDeadPeer|TestSpeculationWinsAndCancelsLoser|TestQuorumMajorityFirstElectorate|TestFarmFrozenDonorDeclaredDead|TestFarmLongUnitOutlivesDetector|TestFarmWedgedDonorNeedsSpeculation|TestSilentListenerCostsOneHelloWait|TestShutdownJudgesNoPeer' -count=1 -v
	go test ./internal/simnet/ -run 'TestFreezeSilencesWithoutBreaking' -count=1 -v

# Graceful-lifecycle battery under the race detector: the lifecycle
# state-machine and crash-safe snapshot unit suites, a drain under
# live 4-tenant farm load (zero in-flight failures, ErrDraining for
# late farms, adverts retracted, super-peer handoff), a donor draining
# mid-job finishing it with no redespatch, a drain waiting for ended
# jobs' results to be collected, a drain waiting for a run handler
# still binding pipes, a job with an unbound input holding a
# drain to its timeout, crash-restart
# resume from the -state-dir checkpoint with byte-identical outputs,
# wire-level method quiescing, 50 Start->Drain->Stop cycles without a
# goroutine leak, and the /healthz / /readyz probe flip. A short fuzz
# pass feeds arbitrary bytes to the six checkpoint-section decoders
# (none may panic), and the parent-written snapshot fixture must
# restore with its contents intact.
drain-smoke:
	go test -race ./internal/lifecycle/ -count=1
	go test ./internal/service/ -run '^$$' -fuzz FuzzCheckpointSections -fuzztime 10s
	go test -race ./internal/service/ -run 'TestAdmissionDrainGatesFarmsNotSlots|TestDrainUnderTenantLoad|TestDrainWaitsForHostedJobs|TestDrainWaitsForResultCollection|TestDrainWaitsForHeldOutputs|TestDrainWaitsForRunHandlers|TestDrainTimesOutOnUnboundHostedJob|TestDrainRPCReportsProgress|TestCheckpointRestoreRoundTrip|TestCheckpointRestoresParentSnapshot|TestBillingRestoreRejectsOverlongUvarint|TestRestartRecoveryResumesCheckpointedFarm|TestLifecycleCyclesDoNotLeakGoroutines' -count=1 -v
	go test -race ./internal/jxtaserve/ -run 'TestQuiesce' -count=1
	go test -race ./internal/webstatus/ -run 'TestProbesFlipOnDrain' -count=1

# Capability identity groups: the capgroup canonicalisation / advert /
# index unit suite, the mixed-ring controller acceptance battery (group
# despatch, single-group quorum electorates, counted whole-pool
# fallback, poolless pull resolution), the pooled farm's
# discovery-filter regression, the group-committed farm and
# ErrNoQuorumCapacity regressions, and the -caps / -require-caps
# flag-validation table. Membership rides the service advert, so the
# overlay's replication and repair of it are the overlay-smoke battery.
groups-smoke:
	go test ./internal/capgroup/ -count=1
	go test ./internal/controller/ -run 'TestGroup|TestPooledFarmHonoursDiscoveryFilters' -count=1 -v
	go test ./internal/service/ -run 'TestGroup' -count=1
	go test ./cmd/trianad/ -run 'TestValidate|TestParseCaps' -count=1

# Discovery-overlay chaos: seeded simnet with 3 super-peers (R=2), one
# killed mid-run. Asserts every advert published before the kill stays
# discoverable, failover pushes reach subscribers, and anti-entropy
# repairs a healed partition. Deterministic seeds. Then the read path:
# a super answers a repeat query from its stored reply until a write, an
# expiry or a sweep changes the answer, within its count and byte
# bounds; every write path serves canonical bytes; the client's memo
# shares one read-only advert per distinct encoding; the query encoder
# writes encoding/xml's bytes; and a pooled group farm plus a pull leave
# every shared advert as its donor published it. The allocation budgets
# (warm query per advert, warm super reply, Service.Discover per advert)
# run here without the race detector. Last, the daemon's side:
# Service.Discover is exactly the ring's answer.
overlay-smoke:
	go test ./internal/overlay/ -run 'TestChaosSuperPeerFailover|TestAntiEntropyRepairsPartition|TestPublishAndQueryMessageCost|TestQueryAllocBudget|TestWarmQueryAllocBudget|TestSuperAnswersRepeatQueriesFromStoredReplies|TestStoredRepliesStayBounded|TestReplyFromOvertakenFindIsNotStored|TestStoredRepliesUnderConcurrentWrites|TestEveryWritePathServesCanonicalBytes|TestQueryResultsShareDecodedAdverts|TestClientConcurrentQueryNotifyPublish' -count=1 -v
	go test ./internal/advert/ -run 'TestQueryMarshalMatchesEncodingXML|TestQueryXMLRoundTrip|FuzzQueryRoundTrip' -count=1 -v
	go test ./internal/controller/ -run 'TestSharedAdvertsSurviveFarmAndPull' -count=1 -v
	go test ./internal/service/ -run 'TestDiscoverIsTheRingsAnswer|TestServiceDiscoverAllocBudget' -count=1 -v
