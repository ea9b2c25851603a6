package main

import (
	"strconv"
)

// livePerLayer turns a traced live run's scrapes, samples and handler spans
// into the per-layer metrics. Counters are read after Phase A on a server
// that started empty, so they are Phase A's own; sizes are read at the end.
// It runs after the direct-call phase, whose journal timing it needs.
func livePerLayer(cfg runConfig, r *runResult, g *loadgen, sum summary, handlers map[string]handlerSpan, afterA, atEnd, recovered scrape, f liveFacts) {
	p := r.metrics
	front, sh := afterA.front, afterA.shards

	p.set("loadgen.lateness_ms_p99", sum.latenessP99)
	p.set("loadgen.samples", float64(len(sum.submitMs)))
	p.set("loadgen.phase_a_mean_ms", mean(sum.submitMs))
	p.set("loadgen.send_wait_us_mean", mean(sum.sendWaitUs))
	p.set("loadgen.paced_p50_ms", median(sum.segmentP50))
	p.set("loadgen.submit_p90_ms", quantile(sum.submitMs, 0.90))
	p.set("loadgen.submit_p99_ms", quantile(sum.submitMs, 0.99))
	p.set("loadgen.submit_max_ms", maxOf(sum.submitMs))
	p.set("loadgen.status_p50_ms", median(sum.statusMs))
	p.set("loadgen.status_p99_ms", quantile(sum.statusMs, 0.99))
	p.set("loadgen.list_p50_ms", median(sum.listMs))
	p.set("loadgen.slo_miss_share", ratio(float64(sum.sloMisses), float64(sum.scored)))
	if base, ok := cfg.untraced("loadgen.paced_p50_ms"); ok {
		p.set("loadgen.trace_overhead_ratio", median(sum.segmentP50)/base-1)
	}

	// Every request of the run becomes request ⊃ {send_wait, http_roundtrip
	// ⊃ frontdoor.handler}; the handler and HTTP statistics use Phase A's
	// measured submissions only.
	var handlerUs, httpUs, decidedUs []float64
	handlerBusyA := 0.0
	for _, x := range g.samples {
		id := strconv.FormatInt(x.seq, 10)
		r.spans.add("request", id, "", x.due, x.done)
		r.spans.add("send_wait", id, "request", x.due, x.sent)
		r.spans.add("http_roundtrip", id, "request", x.sent, x.done)
		h, ok := handlers[id]
		if !ok {
			continue
		}
		r.spans.add("frontdoor.handler", id, "http_roundtrip", h.start, h.end)
		if x.phase == 'A' && x.kind == opSubmit {
			handlerBusyA += h.end.Sub(h.start).Seconds()
		}
	}
	for _, x := range sum.measured {
		h, ok := handlers[strconv.FormatInt(x.seq, 10)]
		if !ok {
			continue
		}
		handlerUs = append(handlerUs, us(h.end.Sub(h.start)))
		httpUs = append(httpUs, us(x.done.Sub(x.sent)-h.end.Sub(h.start)))
		if x.jobID != "" { // reached a shard: the admission histogram saw it too
			decidedUs = append(decidedUs, us(h.end.Sub(h.start)))
		}
	}
	r.check(len(handlerUs) == len(sum.measured), "handler spans for %d of %d measured submissions", len(handlerUs), len(sum.measured))

	decided := front["ef_frontdoor_admission_seconds_count"]
	admissionUs := ratio(front["ef_frontdoor_admission_seconds_sum"], decided) * 1e6
	p.set("frontdoor.admission_ms_mean", admissionUs/1000)
	p.set("frontdoor.batch_mean", ratio(front["ef_frontdoor_batch_size_sum"], front["ef_frontdoor_batch_size_count"]))
	p.set("frontdoor.batch_max", histogramMax(front, "ef_frontdoor_batch_size"))
	p.set("frontdoor.rebalanced", front["ef_frontdoor_rebalanced_total"])
	p.set("frontdoor.rate_limited", front[`ef_frontdoor_submissions_total{verdict="rate-limited"}`])
	p.set("frontdoor.quota_rejected", front[`ef_frontdoor_submissions_total{verdict="quota"}`])
	p.set("frontdoor.handler_us_p50", median(handlerUs))
	p.set("frontdoor.handler_us_mean", mean(handlerUs))
	p.set("frontdoor.http_us_p50", median(httpUs))
	p.set("frontdoor.http_us_mean", mean(httpUs))
	p.set("frontdoor.self_us_mean", mean(decidedUs)-admissionUs)

	admitS := sh[`ef_sched_decision_seconds_sum{op="admit"}`]
	admitN := sh[`ef_sched_decision_seconds_count{op="admit"}`]
	allocS := sh[`ef_sched_decision_seconds_sum{op="allocate"}`]
	allocN := sh[`ef_sched_decision_seconds_count{op="allocate"}`]
	p.set("core.admit_calls", admitN)
	p.set("core.admit_busy_s", admitS)
	p.set("core.admit_us_mean", ratio(admitS, admitN)*1e6)
	p.set("core.allocate_calls", allocN)
	p.set("core.allocate_busy_s", allocS)
	p.set("core.allocate_us_mean", ratio(allocS, allocN)*1e6)
	p.set("core.busy_ms_per_req", ratio(admitS+allocS, decided)*1000)
	p.set("core.busy_share", ratio(admitS+allocS, handlerBusyA))
	hits, misses := sh["ef_sched_plan_cache_hits_total"], sh["ef_sched_plan_cache_misses_total"]
	p.set("core.plancache_hit_ratio", ratio(hits, hits+misses))

	fsyncs := sh["ef_store_fsyncs_total"]
	p.set("store.records_batch", sh[`ef_store_records_total{kind="batch"}`])
	p.set("store.records_advance", sh[`ef_store_records_total{kind="advance"}`])
	p.set("store.records_event", sh[`ef_store_records_total{kind="event"}`])
	p.set("store.fsyncs", fsyncs)
	p.set("store.fsyncs_per_req", ratio(fsyncs, decided))
	p.set("store.snapshots", sh["ef_store_snapshots_total"])
	p.set("store.snapshot_bytes", atEnd.shards["ef_store_snapshot_bytes"])
	p.set("store.state_dir_bytes", float64(f.stateBytes))

	met, missed := sh[`ef_completions_total{met="true"}`], sh[`ef_completions_total{met="false"}`]
	p.set("serverless.completed", met+missed)
	p.set("serverless.deadline_missed", missed)
	p.set("serverless.rescales", sh["ef_rescales_total"])
	p.set("serverless.migrations", sh["ef_migrations_total"])
	p.set("serverless.jobs_retained", float64(f.retained))
	p.set("serverless.list_ms_at_end", f.listMs)
	replayed := recovered.shards["ef_store_replayed_records_total"]
	p.set("serverless.recover_s", f.recoverS)
	p.set("serverless.replayed_records", replayed)
	p.set("serverless.replay_us_per_record", ratio(recovered.shards["ef_store_recovery_seconds_sum"], replayed)*1e6)

	p.set("obs.metrics_bytes", float64(atEnd.bytes))
	p.set("obs.metrics_scrape_ms", ms(atEnd.took))

	// What the admission path spent that neither the journal nor the
	// scheduler timers account for: the platform's own work plus any wait in
	// the front door's batch queue, which cannot be told apart from outside.
	store := p.values["store.fsyncs_per_req"] * p.values["store.append_durable_us_p50"]
	core := p.values["core.busy_ms_per_req"] * 1000
	p.set("serverless.self_us_per_req", admissionUs-store-core)
}

// liveDirect is the traced run's direct-call phase over a live workload's own
// requests and jobs.
func liveDirect(cfg runConfig, r *runResult, in *inputs) error {
	p, spans, calls := r.metrics, r.spans, directCalls(cfg.seconds)
	shardGPUs := shardTopology.Servers * shardTopology.GPUsPerServer
	for _, step := range []struct {
		name string
		run  func(dir string) error
	}{
		{"store", func(dir string) error { return directStore(p, spans, dir, in.reqs, calls) }},
		{"serverless", func(dir string) error { return directServerless(p, spans, dir, in.reqs, calls) }},
		{"frontdoor", func(dir string) error { return directFrontdoor(p, spans, dir, in.reqs, calls) }},
	} {
		dir, err := cfg.tempDir(step.name)
		if err != nil {
			return err
		}
		if err := step.run(dir); err != nil {
			return err
		}
	}
	directCore(p, spans, in.jobs, shardGPUs, calls)
	directPlan(p, spans, in.jobs, shardGPUs, calls)
	if err := directTopology(p, spans, in.jobs, shardTopology); err != nil {
		return err
	}
	return directThroughput(p, spans, in.jobs, shardGPUs)
}
