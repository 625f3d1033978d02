package main

import (
	"fmt"
	"math"
	"sort"
)

// endToEnd and perLayer name what a run's summary line reports with
// -trace 0 and -trace 1. They repeat BENCHMARK.json, which the self-test
// holds them to: the program must be able to report without reading it.
var endToEnd = []string{
	"setup_s", "setup_alloc_mb", "alloc_kb_per_op", "allocs_per_op", "wire_kb_per_op", "heap_live_mb",
}

var perLayer = []string{
	"failed_share", "ops_per_s", "op_ms_p50", "op_ms_p90", "cpu_ms_per_op",
	"egress_kb_per_op", "join_visible_ms_p50",
	"controller.select_us", "controller.discover_ms", "policy.plan_us", "health.rank_us",
	"taskgraph.xml_us", "taskgraph.clone_us",
	"types.marshal_us", "types.unmarshal_us",
	"chunkstore.digest_us", "chunkstore.manifest_us", "chunkstore.put_get_us",
	"chunkstore.fetch_share.local", "chunkstore.fetch_share.ring", "chunkstore.fetch_share.peer",
	"chunkstore.fetch_share.controller", "chunkstore.cache_hit_share", "chunkstore.saved_kb_per_op",
	"jxtaserve.codec_us", "jxtaserve.codec_xml_us", "jxtaserve.rpc_rtt_us", "jxtaserve.rpc_rtt_inproc_us",
	"jxtaserve.dial_us", "jxtaserve.pipe_us", "jxtaserve.msgs_per_op",
	"jxtaserve.negotiated.binary", "jxtaserve.negotiated.xml", "jxtaserve.negotiated.legacy",
	"service.despatch_ms", "service.despatches_per_op", "service.redespatches_per_op",
	"service.retries_per_op", "service.wasted_items_per_op", "service.quorum_commits_per_op",
	"service.quorum_disagreements_per_op", "service.sheds_per_op", "service.sched_wait_ms_p50",
	"service.new_ms", "service.new_alloc_kb", "service.advertise_us", "service.drain_ms",
	"discovery.new_node_alloc_kb",
	"overlay.publish_us", "overlay.query_us", "overlay.notify_us", "overlay.retract_visible_us", "overlay.ring_owners_ns",
	"capgroup.match_us", "advert.codec_us",
	"mcode.fetches_per_op", "mcode.store_hit_share",
	"engine.run_ms", "engine.unit_exec_ms_per_op", "engine.cow_clones_per_op",
	"dsp.fft_16k_us", "dsp.xcorr_bank_ms",
	"harness.op_ms_p99", "harness.churn_late_ms_p90", "harness.calib_drift",
	"harness.trace_overhead_share", "harness.heap_live_end_mb", "harness.rss_peak_mb",
	"budget.select_ms_per_op", "budget.graph_encode_ms_per_op", "budget.marshal_digest_ms_per_op",
	"budget.wire_codec_ms_per_op", "budget.rpc_ms_per_op", "budget.transfer_ms_per_op",
	"budget.unit_exec_ms_per_op", "budget.residual_ms_per_op", "budget.residual_share",
}

// declaration is BENCHMARK.json, as far as this program reads it.
type declaration struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []declared                   `json:"end_to_end"`
	PerLayer  []declared                   `json:"per_layer"`
}

type declared struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// disagree names every workload x end-to-end metric on which two sets
// differ by more than the metric's bound, in either direction: sets of
// the same code must agree both ways, and between two commits a move
// past the bound either way is something to explain.
func disagree(manifest string, a, b *resultSet) ([]string, error) {
	var decl declaration
	if err := readJSON(manifest, &decl); err != nil {
		return nil, err
	}
	var out []string
	names := make([]string, 0, len(a.Workloads))
	for w := range a.Workloads {
		names = append(names, w)
	}
	sort.Strings(names)
	for _, w := range names {
		ra, rb := a.Workloads[w], b.Workloads[w]
		if rb == nil {
			out = append(out, fmt.Sprintf("%s: missing from the second set", w))
			continue
		}
		if ra.Failed != rb.Failed {
			// failed_share's bound is zero, absolute.
			out = append(out, fmt.Sprintf("%s failed: %d of %d vs %d of %d", w, ra.Failed, ra.Attempted, rb.Failed, rb.Attempted))
		}
		for _, d := range decl.EndToEnd {
			va, vb := ra.Metrics[d.Name].Value, rb.Metrics[d.Name].Value
			if diff := math.Abs(vb-va) / math.Min(math.Abs(va), math.Abs(vb)); !(diff <= d.Bound) {
				out = append(out, fmt.Sprintf("%s %s: %.4f vs %.4f %s differ by %.1f%%, bound %.0f%%",
					w, d.Name, va, vb, d.Unit, 100*diff, 100*d.Bound))
			}
		}
	}
	return out, nil
}

func compareFiles(manifest, pathA, pathB string) error {
	var a, b resultSet
	if err := readJSON(pathA, &a); err != nil {
		return err
	}
	if err := readJSON(pathB, &b); err != nil {
		return err
	}
	if a.Noisy || b.Noisy {
		fmt.Println("note: a set is marked noisy; its machine moved during the run")
	}
	d, err := disagree(manifest, &a, &b)
	if err != nil {
		return err
	}
	return reportDisagreements(d)
}

func reportDisagreements(d []string) error {
	if len(d) == 0 {
		return nil
	}
	for _, line := range d {
		fmt.Println("DISAGREE", line)
	}
	return fmt.Errorf("%d workload x metric pairs disagree beyond their bounds", len(d))
}
