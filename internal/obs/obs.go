package obs

import (
	"time"

	"github.com/elasticflow/elasticflow/internal/obs/tracing"
)

// Options configures an Obs.
type Options struct {
	// RingSize bounds the event bus (default DefaultRingSize).
	RingSize int
	// Clock is the wall-time source used only for decision-latency timers
	// and EventNow stamps (default time.Now). Tests and deterministic
	// replays inject a fake; simulated-time emitters never consult it.
	Clock func() time.Time
	// Tracer, when set, records causal job-lifecycle span trees
	// (DESIGN.md §13): Event derives a point span from every event of a
	// span-bearing kind. Left nil, every span emission site degrades to a
	// single nil check — tracing disabled is free.
	Tracer *tracing.Tracer
}

// Obs bundles the event bus, the metrics registry, and the standard metric
// catalog. All emitter methods are safe on a nil *Obs (they do nothing), so
// wiring sites need no guards — an unwired component simply observes into
// the void.
type Obs struct {
	// Bus is the structured event log.
	Bus *Bus
	// Metrics is the registry behind GET /metrics.
	Metrics *Registry

	clock  func() time.Time
	start  time.Time
	tracer *tracing.Tracer
	slo    sloMonitor

	admissions   *CounterVec   // ef_admissions_total{verdict}
	completions  *CounterVec   // ef_completions_total{met}
	rescales     *Counter      // ef_rescales_total
	migrations   *Counter      // ef_migrations_total
	errors       *CounterVec   // ef_errors_total{source}
	encodeErrors *Counter      // ef_http_encode_errors_total
	acceptErrors *Counter      // ef_agent_accept_errors_total
	usedGPUs     *Gauge        // ef_used_gpus
	efficiency   *Gauge        // ef_cluster_efficiency
	decisionSec  *HistogramVec // ef_sched_decision_seconds{op}

	planCacheHits   *Counter // ef_sched_plan_cache_hits_total
	planCacheMisses *Counter // ef_sched_plan_cache_misses_total

	faults      *CounterVec // ef_faults_injected_total{kind}
	retries     *Counter    // ef_rpc_retries_total
	agentDowns  *Counter    // ef_agent_down_total
	mirrors     *Counter    // ef_checkpoint_mirrors_total
	restores    *Counter    // ef_checkpoint_restores_total
	recoverySec *Histogram  // ef_recovery_seconds

	storeRecords     *CounterVec // ef_store_records_total{kind}
	storeFsyncs      *Counter    // ef_store_fsyncs_total
	storeSnapshots   *Counter    // ef_store_snapshots_total
	storeSnapBytes   *Gauge      // ef_store_snapshot_bytes
	storeReplayed    *Counter    // ef_store_replayed_records_total
	storeRecoverySec *Histogram  // ef_store_recovery_seconds
	storeTornTails   *Counter    // ef_store_torn_tails_total

	transferBytes   *CounterVec // ef_transfer_bytes_total{dir}
	transferChunks  *CounterVec // ef_transfer_chunks_total{dir}
	transferRetries *Counter    // ef_transfer_chunk_retries_total
	transferResumes *Counter    // ef_transfer_resumes_total
	transferCorrupt *Counter    // ef_transfer_corruptions_total
	transferStall   *Histogram  // ef_transfer_stall_seconds

	sloBudget *Histogram // ef_slo_deadline_budget_ratio
	sloFast   *Gauge     // ef_slo_burn_rate_fast
	sloSlow   *Gauge     // ef_slo_burn_rate_slow

	frontSubmissions *CounterVec // ef_frontdoor_submissions_total{verdict}
	frontAdmitSec    *Histogram  // ef_frontdoor_admission_seconds
	frontBatchSize   *Histogram  // ef_frontdoor_batch_size
	frontRebalanced  *Counter    // ef_frontdoor_rebalanced_total
	tenantGPUs       *GaugeVec   // ef_tenant_used_gpus{tenant}
	tenantQuotaRej   *CounterVec // ef_tenant_quota_rejections_total{tenant}
	tenantRateLim    *CounterVec // ef_tenant_rate_limited_total{tenant}
}

// DecisionBuckets are the fixed upper bounds of ef_sched_decision_seconds:
// 10µs up to 1s, roughly logarithmic.
var DecisionBuckets = []float64{
	1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1,
}

// RecoveryBuckets are the fixed upper bounds of ef_recovery_seconds: from
// 1ms (in-process checkpoint restore) up to a minute (real redeployments).
var RecoveryBuckets = []float64{
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// BatchBuckets are the fixed upper bounds of ef_frontdoor_batch_size:
// powers of two up to the largest admission batch a flush should ever carry.
var BatchBuckets = []float64{
	1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024,
}

// New creates an Obs with the standard metric catalog pre-registered, so
// every series family renders on /metrics from the first scrape.
func New(opts Options) *Obs {
	clock := opts.Clock
	if clock == nil {
		clock = time.Now
	}
	m := newRegistry()
	o := &Obs{
		Bus:     NewBus(opts.RingSize),
		Metrics: m,
		clock:   clock,
		start:   clock(),

		admissions:   m.counterVec("ef_admissions_total", "Admission decisions by verdict.", "verdict"),
		completions:  m.counterVec("ef_completions_total", "Job completions by deadline outcome.", "met"),
		rescales:     m.counter("ef_rescales_total", "Elastic rescale events (checkpoint/restore freezes charged)."),
		migrations:   m.counter("ef_migrations_total", "Cross-server job migrations during defragmentation."),
		errors:       m.counterVec("ef_errors_total", "Errors routed into the observability layer, by source.", "source"),
		encodeErrors: m.counter("ef_http_encode_errors_total", "HTTP responses whose JSON encoding failed mid-write."),
		acceptErrors: m.counter("ef_agent_accept_errors_total", "Agent RPC accept-loop terminal errors."),
		usedGPUs:     m.gauge("ef_used_gpus", "GPUs currently allocated to running jobs."),
		efficiency:   m.gauge("ef_cluster_efficiency", "Cluster efficiency per Eq. 8, last sample."),
		decisionSec:  m.histogramVec("ef_sched_decision_seconds", "Scheduler decision latency by operation.", DecisionBuckets, "op"),

		planCacheHits:   m.counter("ef_sched_plan_cache_hits_total", "Scheduler fill-pass prefix reuses from the plan cache (per job position)."),
		planCacheMisses: m.counter("ef_sched_plan_cache_misses_total", "Scheduler fill-pass jobs planned from scratch (per job position)."),

		faults:      m.counterVec("ef_faults_injected_total", "Faults injected into the control-plane transport, by kind.", "kind"),
		retries:     m.counter("ef_rpc_retries_total", "Controller RPC attempts beyond the first (retry policy)."),
		agentDowns:  m.counter("ef_agent_down_total", "Agents declared down by the heartbeat monitor."),
		mirrors:     m.counter("ef_checkpoint_mirrors_total", "Checkpoints mirrored from agents to the orchestrator."),
		restores:    m.counter("ef_checkpoint_restores_total", "Jobs restored from a mirrored checkpoint after an agent loss."),
		recoverySec: m.histogram("ef_recovery_seconds", "Latency from declaring an agent down to jobs relaunched.", RecoveryBuckets),

		storeRecords:     m.counterVec("ef_store_records_total", "Journal records appended to the durable control-plane store, by record kind.", "kind"),
		storeFsyncs:      m.counter("ef_store_fsyncs_total", "Journal fsync calls (group commit batches durable appends, so this lags records)."),
		storeSnapshots:   m.counter("ef_store_snapshots_total", "Control-plane snapshots written (each truncates the journal chain)."),
		storeSnapBytes:   m.gauge("ef_store_snapshot_bytes", "Size in bytes of the most recent control-plane snapshot."),
		storeReplayed:    m.counter("ef_store_replayed_records_total", "Journal records replayed through the scheduler during recovery."),
		storeRecoverySec: m.histogram("ef_store_recovery_seconds", "Wall time of control-plane state recovery (snapshot load + journal replay).", RecoveryBuckets),
		storeTornTails:   m.counter("ef_store_torn_tails_total", "Torn journal tails (partial final records) detected and truncated during recovery."),

		transferBytes:   m.counterVec("ef_transfer_bytes_total", "Checkpoint bytes moved over the chunked data plane, by direction.", "dir"),
		transferChunks:  m.counterVec("ef_transfer_chunks_total", "CRC-verified chunks moved over the data plane, by direction.", "dir"),
		transferRetries: m.counter("ef_transfer_chunk_retries_total", "Chunk attempts beyond the first (transport drops and CRC refusals)."),
		transferResumes: m.counter("ef_transfer_resumes_total", "Transfers resumed from a verified offset after a dropped stream."),
		transferCorrupt: m.counter("ef_transfer_corruptions_total", "Corrupted chunks detected by CRC and re-requested — never applied."),
		transferStall:   m.histogram("ef_transfer_stall_seconds", "Seconds a transfer waited at the per-agent admission gate (initial wait plus yields).", RecoveryBuckets),

		sloBudget: m.histogram("ef_slo_deadline_budget_ratio", "Fraction of a job's deadline budget consumed at completion ((completion-submit)/(deadline-submit)); >1 is a miss.", BudgetBuckets),
		sloFast:   m.gauge("ef_slo_burn_rate_fast", "Deadline-SLO burn rate over the fast (5 min domain-time) window: miss fraction / error budget."),
		sloSlow:   m.gauge("ef_slo_burn_rate_slow", "Deadline-SLO burn rate over the slow (1 h domain-time) window: miss fraction / error budget."),

		frontSubmissions: m.counterVec("ef_frontdoor_submissions_total", "Front-door submissions by verdict (admit, drop, rate-limited, quota, invalid, error).", "verdict"),
		frontAdmitSec:    m.histogram("ef_frontdoor_admission_seconds", "Wall time from a submission entering the front door to its batched verdict.", DecisionBuckets),
		frontBatchSize:   m.histogram("ef_frontdoor_batch_size", "Submissions amortized into one shard admission batch (one plan-cache fold each).", BatchBuckets),
		frontRebalanced:  m.counter("ef_frontdoor_rebalanced_total", "Submissions routed off their home shard by the spare-GPU rebalancer."),
		tenantGPUs:       m.gaugeVec("ef_tenant_used_gpus", "GPUs currently allocated to a tenant's running jobs, summed across shards.", "tenant"),
		tenantQuotaRej:   m.counterVec("ef_tenant_quota_rejections_total", "Submissions rejected at the front door because the tenant's GPU quota is exhausted.", "tenant"),
		tenantRateLim:    m.counterVec("ef_tenant_rate_limited_total", "Submissions rejected at the front door by the tenant's token-bucket rate limit.", "tenant"),
	}
	o.tracer = opts.Tracer
	// Seed the fixed-verdict series so a scrape before the first decision
	// still shows the catalog.
	o.admissions.With("admit")
	o.admissions.With("drop")
	return o
}

// NewDefault creates an Obs with default options.
func NewDefault() *Obs { return New(Options{}) }

// Tracer returns the span tracer, or nil when tracing is disabled (or the
// Obs itself is nil). All tracer methods are nil-safe, so call sites chain
// without guards: o.Tracer().Begin(...). Point spans are not recorded
// through it: Event derives them.
func (o *Obs) Tracer() *tracing.Tracer {
	if o == nil {
		return nil
	}
	return o.tracer
}

// Now returns seconds since the Obs was created per the injected clock —
// the domain time live (non-simulated) emitters stamp events with.
func (o *Obs) Now() float64 {
	if o == nil {
		return 0
	}
	return o.clock().Sub(o.start).Seconds()
}

// Event is the one record of a transition: it publishes ev to the bus,
// counts it in the catalog series its kind stands for, and records the span
// its kind stands for. ev.Seq is assigned by the bus.
func (o *Obs) Event(ev Event) {
	if o == nil {
		return
	}
	o.Bus.Publish(ev)
	o.count(ev)
	if o.tracer != nil {
		o.trace(ev)
	}
}

// count is the one table from event kinds to catalog counters: an event of
// these kinds bumps its series, and no emitter counts them by hand. The
// restore counter stays explicit (IncRestore): agent adoption emits a
// restore event it does not count.
func (o *Obs) count(ev Event) {
	switch ev.Kind {
	case KindAdmit, KindDrop:
		o.admissions.With(ev.Kind).Inc()
	case KindComplete:
		met, _ := ev.Field("met")
		o.completions.With(met).Inc()
	case KindRescale:
		o.rescales.Inc()
	case KindMigrate:
		o.migrations.Inc()
	case KindRetry:
		o.retries.Inc()
	case KindAgentDown:
		o.agentDowns.Inc()
	case KindMirror:
		o.mirrors.Inc()
	case KindFault:
		kind, _ := ev.Field("kind")
		o.faults.With(kind).Inc()
	}
}

// trace records ev's point span — the table's name, the job's open
// lifecycle root as parent, ev's time and LSN, ev's fields as attributes —
// and then closes that root if ev's kind is terminal.
func (o *Obs) trace(ev Event) {
	name, outcome := spanOf(ev)
	if name != "" {
		o.tracer.EmitLSN(ev.Time, name, ev.JobID, ev.LSN, ev.Fields...)
	}
	if outcome.Key != "" {
		o.tracer.EndJob(ev.Time, ev.JobID, ev.LSN, outcome)
	}
}

// spanOf is the one kind→span table: the point span an event records
// (empty for none) and, for a terminal kind, the attribute its lifecycle
// root closes with. A completion records complete or miss by its met field.
func spanOf(ev Event) (name string, outcome tracing.Attr) {
	switch ev.Kind {
	case KindSchedAdmit:
		name = tracing.SpanPlan
	case KindAdmit:
		name = tracing.SpanAdmit
	case KindDrop:
		name, outcome = tracing.SpanAdmit, tracing.Attr{Key: "outcome", Value: "dropped"}
	case KindCancel:
		outcome = tracing.Attr{Key: "outcome", Value: "cancelled"}
	case KindPlace:
		name = tracing.SpanPlace
	case KindResize:
		name = tracing.SpanRescale
	case KindMigrate:
		name = tracing.SpanMigrate
	case KindEvict:
		name = tracing.SpanNodeDownRecover
	case KindComplete:
		met, _ := ev.Field("met")
		name, outcome = tracing.SpanComplete, tracing.Attr{Key: "deadline_met", Value: met}
		if met != "true" {
			name = tracing.SpanMiss
		}
	}
	return name, outcome
}

// EventNow publishes an event stamped with the injected clock — for live
// components (agents, HTTP handlers) with no domain clock of their own.
func (o *Obs) EventNow(kind, jobID string, fields ...tracing.Attr) {
	if o == nil {
		return
	}
	o.Event(Event{Time: o.Now(), Kind: kind, JobID: jobID, Fields: fields})
}

// Timer starts a decision-latency measurement; the returned function stops
// it and returns elapsed seconds. On a nil Obs it returns a zero stopwatch.
func (o *Obs) Timer() func() float64 {
	if o == nil {
		return func() float64 { return 0 }
	}
	t0 := o.clock()
	return func() float64 { return o.clock().Sub(t0).Seconds() }
}

// ObserveDecision records one scheduler decision's latency under the given
// operation label ("admit" or "allocate").
func (o *Obs) ObserveDecision(op string, sec float64) {
	if o == nil {
		return
	}
	o.decisionSec.With(op).Observe(sec)
}

// IncError counts one routed error by source (e.g. "agent-accept",
// "http-encode") in ef_errors_total.
func (o *Obs) IncError(source string) {
	if o == nil {
		return
	}
	o.errors.With(source).Inc()
}

// IncEncodeError counts one failed HTTP JSON encode.
func (o *Obs) IncEncodeError() {
	if o == nil {
		return
	}
	o.encodeErrors.Inc()
	o.IncError("http-encode")
}

// IncAcceptError counts one agent accept-loop terminal error.
func (o *Obs) IncAcceptError() {
	if o == nil {
		return
	}
	o.acceptErrors.Inc()
	o.IncError("agent-accept")
}

// AddPlanCache counts plan-cache outcomes at per-job granularity: hits is
// the number of job fills reused from a cached prefix, misses the number
// filled from scratch, in one scheduler pass.
func (o *Obs) AddPlanCache(hits, misses int) {
	if o == nil {
		return
	}
	o.planCacheHits.Add(float64(hits))
	o.planCacheMisses.Add(float64(misses))
}

// IncRestore counts one job restored from a mirrored checkpoint.
func (o *Obs) IncRestore() {
	if o == nil {
		return
	}
	o.restores.Inc()
}

// ObserveRecovery records one agent-loss recovery latency in seconds.
func (o *Obs) ObserveRecovery(sec float64) {
	if o == nil {
		return
	}
	o.recoverySec.Observe(sec)
}

// IncStoreRecord counts one journal record appended, by record kind.
func (o *Obs) IncStoreRecord(kind string) {
	if o == nil {
		return
	}
	o.storeRecords.With(kind).Inc()
}

// IncStoreFsync counts one journal fsync (one group-commit batch).
func (o *Obs) IncStoreFsync() {
	if o == nil {
		return
	}
	o.storeFsyncs.Inc()
}

// ObserveStoreSnapshot records one written snapshot and its size.
func (o *Obs) ObserveStoreSnapshot(bytes int) {
	if o == nil {
		return
	}
	o.storeSnapshots.Inc()
	o.storeSnapBytes.Set(float64(bytes))
}

// AddStoreReplayed counts records replayed through the scheduler during
// recovery.
func (o *Obs) AddStoreReplayed(n int) {
	if o == nil {
		return
	}
	o.storeReplayed.Add(float64(n))
}

// ObserveStoreRecovery records one control-plane recovery's wall time.
func (o *Obs) ObserveStoreRecovery(sec float64) {
	if o == nil {
		return
	}
	o.storeRecoverySec.Observe(sec)
}

// IncStoreTornTail counts one torn journal tail truncated during recovery.
func (o *Obs) IncStoreTornTail() {
	if o == nil {
		return
	}
	o.storeTornTails.Inc()
}

// AddTransferBytes counts checkpoint bytes moved over the data plane in
// the given direction ("fetch" or "push").
func (o *Obs) AddTransferBytes(dir string, n int64) {
	if o == nil {
		return
	}
	o.transferBytes.With(dir).Add(float64(n))
}

// AddTransferChunks counts CRC-verified chunks moved in the given
// direction.
func (o *Obs) AddTransferChunks(dir string, n int) {
	if o == nil {
		return
	}
	o.transferChunks.With(dir).Add(float64(n))
}

// AddTransferRetries counts chunk attempts beyond the first.
func (o *Obs) AddTransferRetries(n int) {
	if o == nil {
		return
	}
	o.transferRetries.Add(float64(n))
}

// AddTransferResumes counts streams resumed from a verified offset.
func (o *Obs) AddTransferResumes(n int) {
	if o == nil {
		return
	}
	o.transferResumes.Add(float64(n))
}

// AddTransferCorruptions counts corrupted chunks caught by CRC.
func (o *Obs) AddTransferCorruptions(n int) {
	if o == nil {
		return
	}
	o.transferCorrupt.Add(float64(n))
}

// ObserveTransferStall records the seconds one transfer spent queued at
// the per-agent admission gate.
func (o *Obs) ObserveTransferStall(sec float64) {
	if o == nil {
		return
	}
	o.transferStall.Observe(sec)
}

// IncFrontdoorSubmission counts one front-door submission by verdict
// ("admit", "drop", "rate-limited", "quota", "invalid", "error").
func (o *Obs) IncFrontdoorSubmission(verdict string) {
	if o == nil {
		return
	}
	o.frontSubmissions.With(verdict).Inc()
}

// ObserveFrontdoorAdmission records one submission's wall time from front
// door arrival to batched verdict.
func (o *Obs) ObserveFrontdoorAdmission(sec float64) {
	if o == nil {
		return
	}
	o.frontAdmitSec.Observe(sec)
}

// ObserveFrontdoorBatch records the size of one flushed admission batch.
func (o *Obs) ObserveFrontdoorBatch(size int) {
	if o == nil {
		return
	}
	o.frontBatchSize.Observe(float64(size))
}

// IncFrontdoorRebalanced counts one submission the spare-GPU rebalancer
// routed off its home shard.
func (o *Obs) IncFrontdoorRebalanced() {
	if o == nil {
		return
	}
	o.frontRebalanced.Inc()
}

// SetTenantGPUs records one tenant's currently allocated GPUs.
func (o *Obs) SetTenantGPUs(tenant string, n int) {
	if o == nil {
		return
	}
	o.tenantGPUs.With(tenant).Set(float64(n))
}

// IncTenantQuotaRejection counts one submission refused for an exhausted
// GPU quota.
func (o *Obs) IncTenantQuotaRejection(tenant string) {
	if o == nil {
		return
	}
	o.tenantQuotaRej.With(tenant).Inc()
}

// IncTenantRateLimited counts one submission refused by the tenant's
// token-bucket rate limit.
func (o *Obs) IncTenantRateLimited(tenant string) {
	if o == nil {
		return
	}
	o.tenantRateLim.With(tenant).Inc()
}

// SetUsedGPUs records the current allocated-GPU level.
func (o *Obs) SetUsedGPUs(n int) {
	if o == nil {
		return
	}
	o.usedGPUs.Set(float64(n))
}

// SetClusterEfficiency records the latest Eq. 8 sample.
func (o *Obs) SetClusterEfficiency(v float64) {
	if o == nil {
		return
	}
	o.efficiency.Set(v)
}
