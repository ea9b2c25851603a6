package main

import (
	"fmt"
	"math"
)

// metricDef names one metric of the benchmark. BENCHMARK.json at the repo
// root carries the same names and units (bench_test.go holds the two
// together); the harness takes units from here so a run cannot emit a name
// the catalog does not know.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd is what a user of either surface sees. Every workload emits every
// one of them (the driver's contract); README.md says what each means on the
// live control plane and on the simulator.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"submit_p50_ms", "ms", "lower"},
	{"submit_rps", "1/s", "higher"},
	{"server_cpu_ms_per_req", "ms", "lower"},
	{"server_peak_rss_mb", "MB", "lower"},
	{"admitted_share", "ratio", "higher"},
	{"dsr", "ratio", "higher"},
}

// perLayer is emitted by the traced run. Layers are this repo's packages; a
// metric a workload does not exercise reads 0 there.
var perLayer = []metricDef{
	{"loadgen.build_s", "s", "lower"},
	{"loadgen.lateness_ms_p99", "ms", "lower"},
	{"loadgen.samples", "count", "higher"},
	{"loadgen.phase_a_mean_ms", "ms", "lower"},
	{"loadgen.send_wait_us_mean", "us", "lower"},
	{"loadgen.paced_p50_ms", "ms", "lower"},
	{"loadgen.submit_p90_ms", "ms", "lower"},
	{"loadgen.submit_p99_ms", "ms", "lower"},
	{"loadgen.submit_max_ms", "ms", "lower"},
	{"loadgen.status_p50_ms", "ms", "lower"},
	{"loadgen.status_p99_ms", "ms", "lower"},
	{"loadgen.list_p50_ms", "ms", "lower"},
	{"loadgen.slo_miss_share", "ratio", "lower"},
	{"loadgen.trace_overhead_ratio", "ratio", "lower"},

	{"frontdoor.admission_ms_mean", "ms", "lower"},
	{"frontdoor.batch_mean", "count", "higher"},
	{"frontdoor.batch_max", "count", "higher"},
	{"frontdoor.rebalanced", "count", "lower"},
	{"frontdoor.rate_limited", "count", "lower"},
	{"frontdoor.quota_rejected", "count", "lower"},
	{"frontdoor.handler_us_p50", "us", "lower"},
	{"frontdoor.handler_us_mean", "us", "lower"},
	{"frontdoor.http_us_p50", "us", "lower"},
	{"frontdoor.http_us_mean", "us", "lower"},
	{"frontdoor.self_us_mean", "us", "lower"},
	{"frontdoor.burst_submissions_per_s", "1/s", "higher"},
	{"frontdoor.burst_batch_mean", "count", "higher"},
	{"frontdoor.burst_verdict_p99_ms", "ms", "lower"},

	{"serverless.completed", "count", "higher"},
	{"serverless.deadline_missed", "count", "lower"},
	{"serverless.rescales", "count", "lower"},
	{"serverless.migrations", "count", "lower"},
	{"serverless.jobs_retained", "count", "lower"},
	{"serverless.self_us_per_req", "us", "lower"},
	{"serverless.recover_s", "s", "lower"},
	{"serverless.replayed_records", "count", "lower"},
	{"serverless.replay_us_per_record", "us", "lower"},
	{"serverless.submit_batch_us_p50", "us", "lower"},
	{"serverless.submit_batch_us_per_item_b64", "us", "lower"},
	{"serverless.submit_storeless_us_p50", "us", "lower"},
	{"serverless.tick_us_p50", "us", "lower"},
	{"serverless.get_us_p50", "us", "lower"},
	{"serverless.list_ms_at_end", "ms", "lower"},

	{"store.records_batch", "count", "lower"},
	{"store.records_advance", "count", "lower"},
	{"store.records_event", "count", "lower"},
	{"store.fsyncs", "count", "lower"},
	{"store.fsyncs_per_req", "ratio", "lower"},
	{"store.snapshots", "count", "lower"},
	{"store.snapshot_bytes", "B", "lower"},
	{"store.state_dir_bytes", "B", "lower"},
	{"store.append_durable_us_p50", "us", "lower"},
	{"store.append_nosync_us_p50", "us", "lower"},

	{"core.admit_calls", "count", "lower"},
	{"core.admit_busy_s", "s", "lower"},
	{"core.admit_us_mean", "us", "lower"},
	{"core.allocate_calls", "count", "lower"},
	{"core.allocate_busy_s", "s", "lower"},
	{"core.allocate_us_mean", "us", "lower"},
	{"core.busy_ms_per_req", "ms", "lower"},
	{"core.busy_share", "ratio", "lower"},
	{"core.plancache_hit_ratio", "ratio", "higher"},
	{"core.earliest_deadline_us_mean", "us", "lower"},

	{"plan.fill_us_p50", "us", "lower"},
	{"plan.fill_slots_mean", "count", "lower"},

	{"topology.alloc_us_p50", "us", "lower"},
	{"topology.migrations_per_alloc", "ratio", "lower"},

	{"sim.wall_s", "s", "lower"},
	{"sim.self_s", "s", "lower"},
	{"sim.jobs_per_s", "1/s", "higher"},
	{"sim.admitted", "count", "higher"},
	{"sim.cluster_efficiency", "ratio", "higher"},
	{"sim.speedup_wN", "ratio", "higher"},

	{"obs.sim_overhead_ratio", "ratio", "lower"},
	{"obs.metrics_bytes", "B", "lower"},
	{"obs.metrics_scrape_ms", "ms", "lower"},

	{"throughput.profile_us_cold", "us", "lower"},
	{"throughput.profile_us_warm", "us", "lower"},
}

// metric is one emitted value in the shape the driver reads.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects one run's values against a catalog.
type metricSet struct {
	defs   []metricDef
	values map[string]float64
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: make(map[string]float64, len(defs))}
}

// set records a value; a name outside the catalog or a second write is a
// harness bug, not a measurement outcome.
func (m *metricSet) set(name string, v float64) {
	if _, dup := m.values[name]; dup {
		panic("benchmark: metric " + name + " set twice")
	}
	for _, d := range m.defs {
		if d.Name == name {
			m.values[name] = v
			return
		}
	}
	panic("benchmark: metric " + name + " is not in the catalog")
}

// emit renders the set. With fill, names the workload did not exercise read
// 0 (per-layer runs); without it a missing name is an error (end-to-end
// runs, where every workload defines every metric).
func (m *metricSet) emit(fill bool) (map[string]metric, error) {
	out := make(map[string]metric, len(m.defs))
	for _, d := range m.defs {
		v, ok := m.values[d.Name]
		if !ok && !fill {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite: %v", d.Name, v)
		}
		out[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	return out, nil
}
