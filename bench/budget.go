package main

import (
	"fmt"
	"math"
	"os"
	"text/tabwriter"
)

// stage is one row of the latency budget: what a layer costs per call,
// by its probe, times how often an op calls it, by the program's own
// counters, divided by how many of those calls overlap.
type stage struct {
	name    string
	perCall float64 // ms, probe median
	calls   float64 // per op, in total
	overlap float64 // calls in flight at once on the op's blocking path
}

func (s stage) ms() float64 { return s.perCall * s.calls / s.overlap }

// budgetStages models the despatch path of one op. It is a model, not a
// measurement: whatever it misses — queueing, scheduling, the overlay,
// goroutine hand-offs, and on peer_churn nearly everything — is the
// residual, which is why the residual is printed.
//
// fan is how many attempts of one op are in flight together (quorum
// voters, parallel replicas): wire-bound stages overlap that widely,
// CPU-bound ones at most procs-wide.
func budgetStages(m metricSet, p *prober, counted opStats) []stage {
	v := func(name string) float64 { return m[name].Value }
	ops := float64(counted.ok())
	fan := float64(p.kit.fan)
	cpuFan := math.Min(fan, procs)

	despatches := v("service.despatches_per_op")
	fetches := (counterDelta(counted.before, counted.after, "chunkstore_fetch_total")) / ops
	wireBytes := counterDelta(counted.before, counted.after, "jxtaserve_bytes_sent_total") / ops
	// Body runs per op, summed over voters: the engine's own count of the
	// body's unit executions, in units of one probe run on one chunk.
	var unitExecs float64
	for _, t := range p.kit.body().Tasks {
		unitExecs += counterDelta(counted.before, counted.after, "engine_unit_exec_seconds_count", `unit="`+t.Unit+`"`)
	}
	bodyRuns := share(unitExecs/ops, p.unitExecsPerRun)
	items := bodyRuns * float64(len(p.kit.chunk))

	return []stage{
		{"select", v("controller.select_us") / 1e3, despatches, fan},
		{"graph_encode", (v("taskgraph.xml_us") + v("taskgraph.clone_us")) / 1e3, despatches, cpuFan},
		// Each item is marshalled, digested and unmarshalled on its way in
		// and again on its way out.
		{"marshal_digest", (v("types.marshal_us") + v("types.unmarshal_us") + v("chunkstore.digest_us")) / 1e3, 2 * items, cpuFan},
		// The op's wire bytes, in frames the size of one workload datum.
		{"wire_codec", v("jxtaserve.codec_us") / 1e3, wireBytes / float64(p.frameBytes), cpuFan},
		// triana.run and triana.wait per attempt, one round trip per chunk fetch.
		{"rpc", v("jxtaserve.rpc_rtt_us") / 1e3, 2*despatches + fetches, fan},
		// An input and an output pipe per attempt.
		{"transfer", v("jxtaserve.pipe_us") / 1e3, 2 * despatches, fan},
		{"unit_exec", v("engine.run_ms"), bodyRuns, cpuFan},
	}
}

// budget reconciles the stage model with the traced median latency and
// prints the table: stages plus residual equal tracedP50 exactly.
func budget(m metricSet, p *prober, counted opStats, tracedP50 float64) {
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "budget stage\tcalls/op\tms/call\toverlap\tms/op\tshare\t\n")
	sum := 0.0
	for _, s := range budgetStages(m, p, counted) {
		sum += s.ms()
		m.put("budget."+s.name+"_ms_per_op", s.ms(), "ms", 0)
		fmt.Fprintf(tw, "%s\t%.1f\t%.4f\t%.0f\t%.3f\t%.1f%%\t\n", s.name, s.calls, s.perCall, s.overlap, s.ms(), 100*s.ms()/tracedP50)
	}
	residual := tracedP50 - sum
	m.put("budget.residual_ms_per_op", residual, "ms", 0)
	m.put("budget.residual_share", residual/tracedP50, "ratio", 0)
	m.put("traced_op_ms_p50", tracedP50, "ms", 0)
	fmt.Fprintf(tw, "residual\t\t\t\t%.3f\t%.1f%%\t\n", residual, 100*residual/tracedP50)
	fmt.Fprintf(tw, "traced op_ms_p50\t\t\t\t%.3f\t\t\n", tracedP50)
	tw.Flush()
}
