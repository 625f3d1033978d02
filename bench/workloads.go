package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"consumergrid/internal/controller"
	"consumergrid/internal/core"
	"consumergrid/internal/service"
	"consumergrid/internal/taskgraph"
	"consumergrid/internal/types"
	"consumergrid/internal/units"
	"consumergrid/internal/units/mathx"
	"consumergrid/internal/units/signal"
	"consumergrid/internal/units/unitio"
)

// clients is the closed-loop client count: two controller users, tenants
// t0 and t1, each submitting its next op when the previous one returns.
const clients = 2

// A workload is one traffic mix over the grid. Its op is the public
// entry call a user makes, followed by a check of what came back
// against a reference computed without the grid.
type workload struct {
	name   string
	donors int
	// warmupOps run before measuring, tracedOps in the one-client traced run.
	warmupOps, tracedOps int
	// kit is what the layer probes use as "this workload's own inputs".
	kit func(seed int64) probeKit
	// start binds the workload to a stood-up grid.
	start func(g *grid, seed int64) *session
}

// session is a workload bound to one grid.
type session struct {
	// op performs one client's next op and verifies it, returning how
	// long the public entry call took. Any error — refused, failed or
	// wrong output — counts against failed.
	op func(client int) (time.Duration, error)
	// churn is the open-loop background load, nil on all but peer_churn.
	churn *churner
}

// probeKit is the workload's own data handed to the layer probes.
type probeKit struct {
	datum types.Data
	body  func() *taskgraph.Graph
	// chunk is one chunk's inputs.
	chunk []types.Data
	// fan is how many attempts of one op run at once: quorum voters or
	// parallel replicas, 1 for a plain farm's serial chunks.
	fan int
	// workflow is the whole application for the planner probes.
	workflow *taskgraph.Graph
}

var workloads = []workload{
	{
		name: "farm_small", donors: 4, warmupOps: 250, tracedOps: 200,
		kit: smallFarm.kit, start: smallFarm.start,
	},
	{
		name: "farm_bulk_quorum", donors: 4, warmupOps: 30, tracedOps: 40,
		kit: bulkFarm.kit, start: bulkFarm.start,
	},
	{
		name: "workflow_inspiral", donors: 4, warmupOps: 8, tracedOps: 10,
		kit: inspiralKit, start: startInspiral,
	},
	{
		// The farm layers idle here; their probes get the small farm's inputs.
		name: "peer_churn", donors: 16, warmupOps: 1000, tracedOps: 2000,
		kit: smallFarm.kit, start: startChurn,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// --- farms ----------------------------------------------------------------

// farmShape sizes a RunFarm workload.
type farmShape struct {
	chunks, items, bins int
	unit                string
	quorum              int
	// reference computes the expected outputs of one farm from its inputs.
	reference func(in [][]types.Data) [][]float64
}

var smallFarm = farmShape{
	// Control path only: payloads of 2 bins, state carried chunk to chunk.
	chunks: 8, items: 4, bins: 2, unit: signal.NameAccumStat, quorum: 1,
	reference: runningMean,
}

var bulkFarm = farmShape{
	// Data plane: 4 MiB per farm in 256 KiB items, voted by three donors.
	// Negate is stateless: AccumStat state of this size stays reachable in
	// the donors' never-deleted hosted jobs and exhausts memory in seconds.
	chunks: 4, items: 4, bins: 32768, unit: mathx.NameNegate, quorum: 3,
	reference: negated,
}

// runningMean is AccumStat's contract over a whole farm: output n is the
// mean of inputs 0..n, the state carrying across chunk boundaries.
func runningMean(in [][]types.Data) [][]float64 {
	var out [][]float64
	var sum []float64
	n := 0
	for _, chunk := range in {
		for _, d := range chunk {
			amps := d.(*types.Spectrum).Amplitudes
			if sum == nil {
				sum = make([]float64, len(amps))
			}
			for i, v := range amps {
				sum[i] += v
			}
			n++
			inv := 1 / float64(n)
			mean := make([]float64, len(sum))
			for i, v := range sum {
				mean[i] = v * inv
			}
			out = append(out, mean)
		}
	}
	return out
}

// negated is Negate's contract: element-wise -x.
func negated(in [][]types.Data) [][]float64 {
	var out [][]float64
	for _, chunk := range in {
		for _, d := range chunk {
			amps := d.(*types.Spectrum).Amplitudes
			neg := make([]float64, len(amps))
			for i, v := range amps {
				neg[i] = -v
			}
			out = append(out, neg)
		}
	}
	return out
}

// body builds the one-unit farm body once and clones it per attempt.
func (f farmShape) body() func() *taskgraph.Graph {
	g := taskgraph.New("farmbody")
	task, err := units.NewTask("U", f.unit)
	if err != nil {
		panic(err) // the unit toolbox is compiled in
	}
	g.MustAdd(task)
	g.ExternalIn = []taskgraph.Endpoint{{Task: "U", Node: 0}}
	g.ExternalOut = []taskgraph.Endpoint{{Task: "U", Node: 0}}
	return func() *taskgraph.Graph { return g.Clone() }
}

// inputs generates one farm's chunks. Every farm of a run differs (base
// values from the seed, shifted by the farm's number), as real farms do:
// repeated inputs would turn the content-addressed tier into a cache
// benchmark.
func (f farmShape) inputs(base []float64, farm int) [][]types.Data {
	shift := float64(farm)
	in := make([][]types.Data, f.chunks)
	k := 0
	for c := range in {
		in[c] = make([]types.Data, f.items)
		for i := range in[c] {
			amps := make([]float64, f.bins)
			for j := range amps {
				amps[j] = base[k%len(base)] + shift
				k++
			}
			in[c][i] = &types.Spectrum{Resolution: 1, Amplitudes: amps}
		}
	}
	return in
}

func (f farmShape) base(seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	// A prime length, so successive items see different stretches of it.
	base := make([]float64, 65537)
	for i := range base {
		base[i] = rng.Float64()*200 - 100
	}
	return base
}

func (f farmShape) kit(seed int64) probeKit {
	in := f.inputs(f.base(seed), 0)
	// Farms plan nothing: the planner probes get the one workflow the
	// benchmark has.
	return probeKit{datum: in[0][0], body: f.body(), chunk: in[0], fan: f.quorum, workflow: inspiralWorkflow()}
}

// wrongReference, set only by the self-test, corrupts every reference so
// the output checks can be shown to fire.
var wrongReference bool

func (f farmShape) start(g *grid, seed int64) *session {
	base, body := f.base(seed), f.body()
	var farms atomic.Int64
	return &session{op: func(client int) (time.Duration, error) {
		in := f.inputs(base, int(farms.Add(1)))
		want := f.reference(in)
		if wrongReference {
			want[0][0]++
		}
		begin := time.Now()
		rep, err := g.ctl.RunFarm(context.Background(), in, controller.FarmOptions{
			Body:   body,
			Quorum: f.quorum,
			Tenant: "t" + strconv.Itoa(client),
		})
		took := time.Since(begin)
		if err != nil {
			return took, err
		}
		return took, f.check(rep, want)
	}}
}

func (f farmShape) check(rep *service.FarmReport, want [][]float64) error {
	if len(rep.Outputs) != len(want) {
		return fmt.Errorf("farm committed %d outputs, want %d", len(rep.Outputs), len(want))
	}
	committed := 0
	for _, n := range rep.PeerChunks {
		committed += n
	}
	if committed != f.chunks {
		return fmt.Errorf("PeerChunks sum to %d, want %d", committed, f.chunks)
	}
	for n, d := range rep.Outputs {
		s, ok := d.(*types.Spectrum)
		if !ok {
			return fmt.Errorf("output %d is %s, want Spectrum", n, d.TypeName())
		}
		if s.Resolution != 1 || len(s.Amplitudes) != len(want[n]) {
			return fmt.Errorf("output %d has resolution %g and %d bins", n, s.Resolution, len(s.Amplitudes))
		}
		// Bit equality of every value is byte identity of the canonical
		// marshal, without paying a second marshal in the harness.
		for i, v := range s.Amplitudes {
			if math.Float64bits(v) != math.Float64bits(want[n][i]) {
				return fmt.Errorf("output %d bin %d = %g, want %g", n, i, v, want[n][i])
			}
		}
	}
	return nil
}

// --- inspiral -------------------------------------------------------------

const (
	inspiralInject     = 3000
	inspiralIterations = 8
	// The injected chirp starts at 120 Hz, between the bank's 114.7 and
	// 125.3 Hz templates, whose responses peak 12 samples either side of
	// the injection; which of the two is louder varies with the noise.
	inspiralLagTolerance = 16
	// Noise alone peaks below SNR 6; the injection reads near 48.
	inspiralMinSNR = 20
)

func inspiralWorkflow() *taskgraph.Graph {
	return core.InspiralWorkflow(core.InspiralOptions{
		ChunkSamples: 16384, Templates: 16, TemplateLen: 2048, InjectOffset: inspiralInject,
	})
}

func inspiralKit(seed int64) probeKit {
	wf := inspiralWorkflow()
	group := wf.Find("SearchGroup").Group
	rng := rand.New(rand.NewSource(seed))
	samples := make([]float64, 16384)
	for i := range samples {
		samples[i] = rng.NormFloat64()
	}
	datum := &types.SampleSet{SamplingRate: 2000, Samples: samples}
	return probeKit{
		// Parallel replicates the group onto every donor.
		datum: datum, chunk: []types.Data{datum}, fan: 4, workflow: wf,
		body: func() *taskgraph.Graph { return group.Clone() },
	}
}

func startInspiral(g *grid, seed int64) *session {
	wf := inspiralWorkflow()
	var runs atomic.Int64
	return &session{op: func(int) (time.Duration, error) {
		begin := time.Now()
		rep, err := g.ctl.Run(context.Background(), wf, controller.RunOptions{
			Iterations: inspiralIterations,
			Seed:       seed*1_000_003 + runs.Add(1),
		})
		took := time.Since(begin)
		if err != nil {
			return took, err
		}
		if len(rep.Peers) < 1 {
			return took, fmt.Errorf("inspiral ran on no remote peer")
		}
		tab, ok := rep.Result().Unit("Results").(*unitio.Grapher).Last().(*types.Table)
		if !ok {
			return took, fmt.Errorf("inspiral produced no verdict table")
		}
		lag, snr, err := loudest(tab)
		if err != nil {
			return took, err
		}
		want := inspiralInject
		if wrongReference {
			want += 1000
		}
		if lag < want-inspiralLagTolerance || lag > want+inspiralLagTolerance || snr < inspiralMinSNR {
			return took, fmt.Errorf("loudest template peaks at sample %d with SNR %.1f, injection at %d", lag, snr, want)
		}
		return took, nil
	}}
}

// loudest finds the peak lag and SNR of the template that responded most.
func loudest(tab *types.Table) (lag int, snr float64, err error) {
	snrCol, lagCol := tab.ColumnIndex("snr"), tab.ColumnIndex("peakLag")
	if snrCol < 0 || lagCol < 0 || len(tab.Rows) == 0 {
		return 0, 0, fmt.Errorf("verdict table lacks snr/peakLag rows")
	}
	snr = math.Inf(-1)
	for _, row := range tab.Rows {
		v, err := strconv.ParseFloat(row[snrCol], 64)
		if err != nil {
			return 0, 0, err
		}
		if v > snr {
			snr = v
			if lag, err = strconv.Atoi(row[lagCol]); err != nil {
				return 0, 0, err
			}
		}
	}
	return lag, snr, nil
}

// --- churn ----------------------------------------------------------------

const (
	churnInterval = 125 * time.Millisecond // 8 joins a second
	churnStay     = time.Second
	churnTimeout  = 5 * time.Second
)

func startChurn(g *grid, _ int64) *session {
	resident := make(map[string]bool, len(g.donors))
	for _, d := range g.donors {
		resident[d.PeerID()] = true
	}
	return &session{
		churn: &churner{g: g},
		op: func(int) (time.Duration, error) {
			begin := time.Now()
			peers, err := g.ctl.DiscoverPeers(controller.RunOptions{})
			took := time.Since(begin)
			if err != nil {
				return took, err
			}
			found := 0
			for _, p := range peers {
				if resident[p.ID] {
					found++
				}
			}
			want := len(resident)
			if wrongReference {
				want++
			}
			if found < want {
				return took, fmt.Errorf("query found %d of %d resident donors", found, want)
			}
			return took, nil
		},
	}
}

// joinerSeq names joiners uniquely across every churner of the process:
// metric series are keyed by peer ID.
var joinerSeq atomic.Int64

// churner is the open-loop background load of peer_churn: donors join on
// a fixed schedule whatever the grid's state, stay a second, drain and
// leave — independent machine owners do not wait for each other.
type churner struct {
	g    *grid
	stop chan struct{}
	wg   sync.WaitGroup

	mu        sync.Mutex
	joinMS    []float64 // scheduled instant -> present in the controller's pool
	lateMS    []float64 // how far behind schedule the generator woke
	attempted int
	failures  []error
}

// run starts the schedule.
func (c *churner) run() {
	c.stop = make(chan struct{})
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		begin := time.Now()
		for i := 0; ; i++ {
			due := begin.Add(time.Duration(i) * churnInterval)
			select {
			case <-c.stop:
				return
			case <-time.After(time.Until(due)):
			}
			late := time.Since(due)
			c.wg.Add(1)
			go func() {
				defer c.wg.Done()
				ms, err := c.cycle(due)
				c.mu.Lock()
				defer c.mu.Unlock()
				c.attempted++
				c.lateMS = append(c.lateMS, late.Seconds()*1e3)
				if err != nil {
					c.failures = append(c.failures, err)
					return
				}
				c.joinMS = append(c.joinMS, ms)
			}()
		}
	}()
}

// halt ends the schedule; joiners cut their stay short, drain and leave.
func (c *churner) halt() {
	close(c.stop)
	c.wg.Wait()
}

// endChurn stops the background load, if the workload has one, and folds
// its cycles into the run's result: each cycle is one attempted op. The
// two churn metrics read 0 on a workload without joiners.
func (s *session) endChurn(res *result) {
	join, late := metric{Unit: "ms"}, metric{Unit: "ms"}
	if c := s.churn; c != nil {
		c.halt()
		res.Attempted += c.attempted
		res.Failed += len(c.failures)
		if len(c.failures) > 0 && res.FirstError == "" {
			res.FirstError = c.failures[0].Error()
		}
		if len(c.joinMS) > 0 {
			join = metric{median(c.joinMS), "ms", len(c.joinMS)}
		}
		if len(c.lateMS) > 0 {
			late = metric{quantile(sortedCopy(c.lateMS), 90), "ms", len(c.lateMS)}
		}
	}
	res.Metrics["join_visible_ms_p50"] = join
	res.Metrics["harness.churn_late_ms_p90"] = late
}

func (c *churner) pooled(id string) bool {
	for _, p := range c.g.pool.Peers() {
		if p.ID == id {
			return true
		}
	}
	return false
}

// cycle is one donor's life, timed from the instant it was due to join.
func (c *churner) cycle(due time.Time) (joinMS float64, err error) {
	id := fmt.Sprintf("j%d", joinerSeq.Add(1))
	d, err := c.g.newDonor(id)
	if err != nil {
		return 0, err
	}
	defer d.Close()
	if err := d.Advertise(advertTTL); err != nil {
		return 0, err
	}
	if err := waitUntil(churnTimeout, func() bool { return c.pooled(id) }); err != nil {
		return 0, fmt.Errorf("%s never reached the pool: %w", id, err)
	}
	joinMS = time.Since(due).Seconds() * 1e3
	select {
	case <-c.stop:
	case <-time.After(churnStay):
	}
	<-d.BeginDrain(churnTimeout)
	if err := waitUntil(churnTimeout, func() bool { return !c.pooled(id) }); err != nil {
		return 0, fmt.Errorf("%s still pooled after drain: %w", id, err)
	}
	return joinMS, nil
}
