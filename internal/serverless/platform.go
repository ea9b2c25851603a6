// Package serverless is the deadline-driven serverless front end of §3.1: a
// platform that accepts training functions (model, hyperparameters,
// termination condition, deadline — never a GPU count), admits them through
// ElasticFlow's admission control, and elastically schedules the admitted
// jobs over a virtual cluster, plus an HTTP/JSON control plane standing in
// for the prototype's gRPC one.
package serverless

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/elasticflow/elasticflow/internal/core"
	"github.com/elasticflow/elasticflow/internal/job"
	"github.com/elasticflow/elasticflow/internal/model"
	"github.com/elasticflow/elasticflow/internal/obs"
	"github.com/elasticflow/elasticflow/internal/obs/tracing"
	"github.com/elasticflow/elasticflow/internal/sched"
	"github.com/elasticflow/elasticflow/internal/store"
	"github.com/elasticflow/elasticflow/internal/throughput"
	"github.com/elasticflow/elasticflow/internal/topology"
)

// SubmitRequest is the serverless function a DL developer submits (§3.1).
// Note what is absent: any notion of machines or GPU counts.
type SubmitRequest struct {
	// User identifies the submitting developer; operator policies
	// (quotas, pricing, §4.4) key on it. Optional.
	User string `json:"user,omitempty"`
	// Tenant is the namespace this submission bills against. The front
	// door (internal/frontdoor) keys rate limits, GPU quotas and shard
	// routing on it and the journal carries it end-to-end. Optional on a
	// single-platform deployment.
	Tenant string `json:"tenant,omitempty"`
	// Model is a Table 1 model name.
	Model string `json:"model"`
	// GlobalBatch is the training hyperparameter; the platform derives
	// per-worker local batches from it.
	GlobalBatch int `json:"global_batch"`
	// Iterations is the termination condition (maximum iterations).
	Iterations float64 `json:"iterations"`
	// DeadlineSeconds is the deadline relative to submission. Ignored
	// for best-effort jobs.
	DeadlineSeconds float64 `json:"deadline_seconds"`
	// BestEffort submits the job without a deadline (§4.4).
	BestEffort bool `json:"best_effort,omitempty"`
	// SoftDeadline marks the deadline as soft: the job is always
	// admitted but only SLO jobs get guarantees (§4.4).
	SoftDeadline bool `json:"soft_deadline,omitempty"`
}

// JobStatus is the externally visible job state.
type JobStatus struct {
	ID            string  `json:"id"`
	User          string  `json:"user,omitempty"`
	Tenant        string  `json:"tenant,omitempty"`
	Model         string  `json:"model"`
	GlobalBatch   int     `json:"global_batch"`
	State         string  `json:"state"`
	Class         string  `json:"class"`
	GPUs          int     `json:"gpus"`
	LocalBatch    int     `json:"local_batch,omitempty"`
	DoneIters     float64 `json:"done_iters"`
	TotalIters    float64 `json:"total_iters"`
	SubmitTime    float64 `json:"submit_time"`
	Deadline      float64 `json:"deadline,omitempty"`
	EstimatedDone float64 `json:"estimated_done,omitempty"`
	Completion    float64 `json:"completion,omitempty"`
	Placement     string  `json:"placement,omitempty"`
	// EarliestFeasibleSec is set on dropped submissions: the relative
	// deadline (seconds from submission) admission control could have
	// guaranteed instead — the platform's counter-offer. It is also set
	// alongside DeadlineAtRisk with the re-admission counter-offer.
	EarliestFeasibleSec float64 `json:"earliest_feasible_sec,omitempty"`
	// DeadlineAtRisk marks an admitted SLO job whose deadline can no
	// longer be guaranteed after capacity loss (§4.4): the job keeps
	// running demoted, and EarliestFeasibleSec carries the counter-offer.
	DeadlineAtRisk bool `json:"deadline_at_risk,omitempty"`
}

// ClusterStatus summarizes the virtual cluster.
type ClusterStatus struct {
	TotalGPUs   int     `json:"total_gpus"`
	FreeGPUs    int     `json:"free_gpus"`
	Running     int     `json:"running_jobs"`
	Admitted    int     `json:"admitted_jobs"`
	Completed   int     `json:"completed_jobs"`
	Dropped     int     `json:"dropped_jobs"`
	DownServers int     `json:"down_servers,omitempty"`
	PlatformSec float64 `json:"platform_sec"`
}

// Options configures a Platform.
type Options struct {
	// Topology describes the virtual cluster (default 2 servers × 8).
	Topology topology.Config
	// TimeScale is how many platform-seconds elapse per wall second
	// (default 1). Large values fast-forward demo runs.
	TimeScale float64
	// Clock overrides the time source (tests). It must be monotonic.
	Clock func() time.Time
	// Obs is the observability sink (event bus + metrics registry) behind
	// GET /metrics and GET /debug/events. Nil creates a fresh one sharing
	// the platform's Clock. The platform wires it into its scheduler for
	// decision tracing.
	Obs *obs.Obs
	// Store, when non-nil, makes the control plane durable: every mutation
	// is recorded in the journal (record-then-apply) before it is applied,
	// and Shutdown snapshots the final state. NewPlatform requires the
	// store to be empty; a store with recovered state must go through
	// Recover.
	Store *store.Store
	// SnapshotEvery triggers a snapshot (which truncates the journal)
	// after that many records — each one a decision: a mutation, or the
	// clock reading of a tick or read — so recovery replays at most that
	// many. 0 disables periodic snapshots; Shutdown still takes a final one.
	SnapshotEvery int
	// JobPrefix is prepended to generated job IDs ("job-0001" →
	// "<prefix>job-0001"). The front door gives each shard a distinct
	// prefix ("s0-", "s1-", …) so job IDs stay globally unique and
	// route back to their shard.
	JobPrefix string
}

// Platform is the running serverless service. All methods are safe for
// concurrent use.
type Platform struct {
	// mu is held across scheduling, journaling and plan-cache calls, so
	// it precedes the scheduler's and the store's locks.
	//
	//eflint:lockorder serverless.Platform.mu core.ElasticFlow.mu
	//eflint:lockorder serverless.Platform.mu store.Store.mu
	mu      sync.Mutex
	ef      *core.ElasticFlow
	cluster *topology.Cluster // placement state mutates under mu. guarded by mu
	est     throughput.Estimator
	prof    *throughput.Profiler
	clock   func() time.Time
	start   time.Time
	scale   float64
	// eng applies every decision, completion and server transition to
	// cluster and the jobs — the same sched.Engine the simulator drives
	// (DESIGN.md §5.1). guarded by mu
	eng sched.Engine
	// lsn is the journal LSN of the mutation record currently being
	// applied — the flight-recorder correlation eventLocked stamps onto
	// every event the apply emits, the engine's included, and so onto their
	// spans. The live path sets it at append time, replay sets it from the
	// record being replayed, so the two produce identical spans. Zero on a
	// storeless platform. guarded by mu
	lsn uint64
	// lastTick is the platform time of the latest advance. journaled;
	// guarded by mu
	lastTick float64
	// wake is the time the last decision asked to be re-run at (a planned
	// allocation change at a slot boundary); the first advance that reaches
	// it reschedules. 0 = none. journaled; guarded by mu
	wake float64
	// trail is a running hash of every deterministic event emitted so far
	// (eventLocked). Each journal record carries the value held when it was
	// appended and replay refuses a record whose value differs from its own:
	// the divergence tripwire of DESIGN.md §11. journaled; guarded by mu
	trail uint64

	seq       int                 // job ID counter. journaled; guarded by mu
	prefix    string              // job ID prefix (Options.JobPrefix)
	batches   uint64              // admission batch counter. journaled; guarded by mu
	active    []*job.Job          // admitted, incomplete jobs. journaled; guarded by mu
	all       map[string]*job.Job // every job ever submitted. journaled; guarded by mu
	completed int                 // journaled; guarded by mu
	dropped   int                 // journaled; guarded by mu
	// tenantsSeen records every tenant that ever submitted, so per-tenant
	// usage gauges keep reporting 0 after a tenant's jobs drain instead of
	// going stale at the last non-zero value. journaled (via job tenants);
	// guarded by mu
	tenantsSeen map[string]bool
	obs         *obs.Obs
	// tr is the span tracer (nil-safe; nil when tracing is disabled).
	tr *tracing.Tracer

	// down marks servers declared failed via NodeDown. journaled; guarded by mu
	down map[int]bool
	// downGPUs is the capacity held by down servers. journaled; guarded by mu
	downGPUs int
	// infeasible maps admitted SLO jobs whose deadline became
	// unguaranteeable after capacity loss to the counter-offer (earliest
	// feasible relative deadline in seconds). journaled; guarded by mu
	infeasible map[string]float64

	// store is the durability journal; nil runs the platform in-memory
	// only (DESIGN.md §11).
	store *store.Store
	// snapEvery is the record count that triggers a snapshot.
	snapEvery int
	// closing rejects mutations once graceful shutdown begins. guarded by mu
	closing bool
	// broken wedges the platform after a journal failure: applying a
	// mutation the journal did not accept would break record-then-apply.
	// guarded by mu
	broken error
	// snap assembles snapshots, keeping the encoding of every job that can
	// no longer change (snapshot.go). guarded by mu
	snap snapshotAssembler
}

// NewPlatform creates a platform over a fresh virtual cluster. A store
// holding recovered state is rejected — silently ignoring it would void
// every guarantee it records; use Recover instead.
func NewPlatform(opts Options) (*Platform, error) {
	if opts.Store != nil && opts.Store.HasState() {
		return nil, fmt.Errorf("serverless: state directory %s holds recovered state; use Recover", opts.Store.Dir())
	}
	return newPlatform(opts)
}

// newPlatform builds the platform shell shared by NewPlatform and Recover.
func newPlatform(opts Options) (*Platform, error) {
	if opts.Topology.Servers == 0 {
		opts.Topology = topology.Config{Servers: 2, GPUsPerServer: 8}
	}
	cluster, err := topology.New(opts.Topology)
	if err != nil {
		return nil, err
	}
	clock := opts.Clock
	if clock == nil {
		clock = time.Now
	}
	o := opts.Obs
	if o == nil {
		o = obs.New(obs.Options{Clock: clock})
	}
	if opts.Store != nil {
		// The store was opened before this handle existed (efserver opens
		// it to decide between fresh start and recovery); route its
		// ef_store_* series here so journal metrics are visible wherever
		// the platform's are scraped.
		opts.Store.SetObs(o)
	}
	ef := core.NewDefault().WithObs(o)
	scale := opts.TimeScale
	if scale <= 0 {
		scale = 1
	}
	est := throughput.NewEstimator(model.DefaultA100())
	p := &Platform{
		obs:         o,
		tr:          o.Tracer(),
		ef:          ef,
		cluster:     cluster,
		eng:         sched.Engine{Cluster: cluster, Sched: ef, Costs: est.CostModel(), Obs: o},
		est:         est,
		prof:        throughput.NewProfiler(est, opts.Topology.GPUsPerServer, cluster.TotalGPUs()),
		clock:       clock,
		start:       clock(),
		scale:       scale,
		prefix:      opts.JobPrefix,
		all:         make(map[string]*job.Job),
		tenantsSeen: make(map[string]bool),
		down:        make(map[int]bool),
		infeasible:  make(map[string]float64),
		store:       opts.Store,
		snapEvery:   opts.SnapshotEvery,
	}
	p.mu.Lock()
	p.eng.Emit = p.eventLocked
	p.mu.Unlock()
	return p, nil
}

// Now returns the platform clock in seconds.
func (p *Platform) Now() float64 {
	return p.clock().Sub(p.start).Seconds() * p.scale
}

// Topology returns the server layout of the platform's cluster — the one
// source an executor sizes its agents from.
func (p *Platform) Topology() topology.Config {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cluster.Config()
}

// Obs returns the platform's observability sink (never nil); the HTTP
// handler serves its registry on /metrics and its bus on /debug/events.
func (p *Platform) Obs() *obs.Obs { return p.obs }

// ValidateSubmit runs the stateless checks of a submission — the ones the
// front door can apply before routing, without touching any platform. A nil
// return does not guarantee admission (the profiler may still reject a batch
// the cluster cannot fit); it guarantees the request is well-formed.
func ValidateSubmit(req SubmitRequest) error {
	spec, err := model.ByName(req.Model)
	if err != nil {
		return err
	}
	if !spec.SupportsBatch(req.GlobalBatch) {
		return fmt.Errorf("serverless: model %s does not support global batch %d (Table 1 pool: %v)", req.Model, req.GlobalBatch, spec.BatchSizes)
	}
	if req.Iterations <= 0 {
		return fmt.Errorf("serverless: iterations must be positive")
	}
	if !req.BestEffort && req.DeadlineSeconds <= 0 {
		return fmt.Errorf("serverless: deadline must be positive for SLO jobs")
	}
	return nil
}

// validateSubmitFull is ValidateSubmit plus the platform-specific profiler
// check (feasibility against this cluster's size). Runs lock-free.
func (p *Platform) validateSubmitFull(req SubmitRequest) error {
	if err := ValidateSubmit(req); err != nil {
		return err
	}
	spec, err := model.ByName(req.Model)
	if err != nil {
		return err
	}
	if _, _, err := p.prof.Profile(spec, req.GlobalBatch); err != nil {
		return err
	}
	return nil
}

// Submit profiles, validates and admits a job (§3.1). The returned status
// reports whether the job was admitted or dropped. Invalid requests are
// rejected before they reach the journal; a valid request is journaled
// durably before the admission decision is applied (record-then-apply).
func (p *Platform) Submit(req SubmitRequest) (JobStatus, error) {
	if err := p.validateSubmitFull(req); err != nil {
		return JobStatus{}, err
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	o := &submitOp{req: req}
	err := p.mutateLocked(o)
	return o.st, err
}

// SubmitBatch admits a batch of pre-validated submissions as ONE journaled
// mutation: a single recBatch record carries every request (with its tenant
// tag), a single batch event frames the group in the event trail, and — when
// anything was admitted — a single rescheduling pass folds the plan cache
// once for the whole batch instead of once per arrival. Verdicts come back
// in arrival order. An invalid item fails the whole batch before the journal
// is touched: the front door validates with ValidateSubmit before batching,
// so a rejection here is a caller bug, not a tenant error.
func (p *Platform) SubmitBatch(reqs []SubmitRequest) ([]JobStatus, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	for i := range reqs {
		if err := p.validateSubmitFull(reqs[i]); err != nil {
			return nil, fmt.Errorf("serverless: batch item %d: %w", i, err)
		}
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	o := &batchOp{reqs: reqs}
	if err := p.mutateLocked(o); err != nil {
		return nil, err
	}
	return o.out, nil
}

// batchOp is one admission batch; out are its verdicts in arrival order.
type batchOp struct {
	reqs []SubmitRequest
	out  []JobStatus
}

func (o *batchOp) kind() string { return recBatch }
func (o *batchOp) body() any    { return &o.reqs }

// applyLocked runs the batched admission decision at time now. One batch
// event frames the group, one frontdoor.batch span parents every admitted
// job's lifecycle, and at most one rescheduling pass runs for the whole batch.
func (o *batchOp) applyLocked(p *Platform, now float64) error {
	p.applyAdvanceLocked(now)
	p.batches++
	batch := p.batches
	p.eventLocked(now, obs.KindBatch, "",
		tracing.A("batch", batch), tracing.A("size", len(o.reqs)), tracing.A("tenants", tenantList(o.reqs)))
	ref := p.tr.Begin(now, tracing.SpanFrontdoorBatch, "")
	o.out = make([]JobStatus, len(o.reqs))
	jobs := make([]*job.Job, len(o.reqs))
	admitted := 0
	ba := p.ef.BeginAdmitBatch(now, p.capLocked())
	for i, req := range o.reqs {
		j, st, err := p.applySubmitItemLocked(req, now, ref, ba)
		if err != nil {
			// Validation passed before journaling, so an apply error is
			// deterministic in (req, state) and replay reaches the same
			// verdict; frame it as an event so trails stay comparable.
			p.eventLocked(now, obs.KindError, "",
				tracing.A("op", "batch-submit"), tracing.A("err", err.Error()))
			o.out[i] = JobStatus{Model: req.Model, Tenant: req.Tenant, State: "invalid"}
			continue
		}
		if j != nil {
			jobs[i] = j
			admitted++
			continue
		}
		o.out[i] = st
	}
	if admitted > 0 {
		p.rescheduleLocked(now)
	}
	for i, j := range jobs {
		if j != nil {
			o.out[i] = p.statusLocked(j)
		}
	}
	p.tr.EndLSN(now, ref, p.lsn,
		tracing.A("batch", batch), tracing.A("size", len(o.reqs)), tracing.A("admitted", admitted))
	return nil
}

// tenantList renders the distinct tenants of a batch in first-appearance
// order — the deterministic framing string of the batch event.
func tenantList(reqs []SubmitRequest) string {
	seen := make(map[string]bool, len(reqs))
	names := make([]string, 0, len(reqs))
	for _, r := range reqs {
		t := r.Tenant
		if t == "" {
			t = "-"
		}
		if !seen[t] {
			seen[t] = true
			names = append(names, t)
		}
	}
	return strings.Join(names, ",")
}

// submitOp is one submission; st is its verdict.
type submitOp struct {
	req SubmitRequest
	st  JobStatus
}

func (o *submitOp) kind() string { return recSubmit }
func (o *submitOp) body() any    { return &o.req }

// applyLocked runs the submission decision at time now. Everything it does
// is deterministic in (req, now, platform state).
func (o *submitOp) applyLocked(p *Platform, now float64) error {
	p.applyAdvanceLocked(now)
	j, st, err := p.applySubmitItemLocked(o.req, now, tracing.Ref{}, p.ef.BeginAdmitBatch(now, p.capLocked()))
	if err != nil {
		return err
	}
	o.st = st
	if j != nil {
		p.rescheduleLocked(now)
		o.st = p.statusLocked(j)
	}
	return nil
}

// applySubmitItemLocked builds, profiles and admission-checks one submission
// without rescheduling. An admitted job is returned for the caller to
// reschedule and compute its post-schedule status (possibly amortized over a
// whole batch); a dropped submission returns (nil, dropStatus, nil) with the
// counter-offer filled in. The lifecycle root parents under batch when set.
// ba is the batch's admission session: one deadline sort and one counter-offer
// search amortize across same-shape arrivals (a single submission passes a
// fresh one-item session, which computes exactly what Admit would).
func (p *Platform) applySubmitItemLocked(req SubmitRequest, now float64, batch tracing.Ref, ba *core.AdmitBatch) (*job.Job, JobStatus, error) {
	spec, err := model.ByName(req.Model)
	if err != nil {
		return nil, JobStatus{}, err
	}
	prof, _, err := p.prof.Profile(spec, req.GlobalBatch)
	if err != nil {
		return nil, JobStatus{}, err
	}
	p.seq++
	j := &job.Job{
		ID:                 fmt.Sprintf("%sjob-%04d", p.prefix, p.seq),
		User:               req.User,
		Tenant:             req.Tenant,
		Model:              spec,
		GlobalBatch:        req.GlobalBatch,
		TotalIters:         req.Iterations,
		SubmitTime:         now,
		Deadline:           now + req.DeadlineSeconds,
		Class:              job.SLO,
		Curve:              prof.Curve,
		MinGPUs:            prof.MinGPUs,
		MaxGPUs:            prof.MaxGPUs,
		RescaleOverheadSec: p.est.RescaleOverhead(spec),
		CheckpointBytes:    spec.GradientBytes(),
		MigrateOverheadSec: p.est.CostModel().MigrateCost(spec.GradientBytes(), topology.LevelCluster),
	}
	switch {
	case req.BestEffort:
		j.Class = job.BestEffort
		j.Deadline = math.Inf(1)
	case req.SoftDeadline:
		j.Class = job.SoftDeadline
	}
	if err := j.Validate(); err != nil {
		return nil, JobStatus{}, err
	}
	p.addJobLocked(j)
	// Open the lifecycle root before admission so the scheduler's plan
	// span lands under it; a drop event closes the tree immediately. Batched
	// arrivals parent under the batch's frontdoor.batch span.
	p.tr.StartJobUnder(now, j.ID, batch)
	stop := p.obs.Timer()
	admitted := ba.Admit(j, p.active)
	p.obs.ObserveDecision("admit", stop())
	if !admitted {
		j.State = job.Dropped
		p.dropped++
		st := p.statusLocked(j)
		if dl, ok := ba.EarliestDeadline(j, p.active); ok {
			st.EarliestFeasibleSec = dl - now
		}
		fields := []tracing.Attr{
			tracing.A("verdict", "drop"), tracing.A("model", j.Model.Name),
			tracing.A("reason", "admission control"),
			tracing.A("earliest_feasible_sec", st.EarliestFeasibleSec),
		}
		if j.Tenant != "" {
			fields = append(fields, tracing.A("tenant", j.Tenant))
		}
		p.eventLocked(now, obs.KindDrop, j.ID, fields...)
		return nil, st, nil
	}
	j.State = job.Admitted
	p.active = append(p.active, j)
	fields := []tracing.Attr{tracing.A("verdict", "admit"), tracing.A("model", j.Model.Name), tracing.A("class", j.Class)}
	if j.Tenant != "" {
		fields = append(fields, tracing.A("tenant", j.Tenant))
	}
	p.eventLocked(now, obs.KindAdmit, j.ID, fields...)
	return j, JobStatus{}, nil
}

// TenantUsage returns GPUs currently held per tenant across active jobs.
// It deliberately does not advance the clock: the front door polls it every
// scheduling epoch for quota checks, and quota enforcement is documented as
// epoch-granular, so a slightly stale read is fine and keeps the poll from
// churning advance records.
func (p *Platform) TenantUsage() map[string]int {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]int)
	for _, j := range p.active {
		if j.Tenant != "" {
			out[j.Tenant] += j.GPUs
		}
	}
	return out
}

// Get returns one job's status.
func (p *Platform) Get(id string) (JobStatus, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.advanceLocked()
	j, ok := p.all[id]
	if !ok {
		return JobStatus{}, fmt.Errorf("serverless: unknown job %q", id)
	}
	return p.statusLocked(j), nil
}

// List returns all jobs, newest first. IDs are the prefix and a sequence
// number of at least four digits, so the newer of two IDs is the longer one,
// or at equal length the greater string.
func (p *Platform) List() []JobStatus {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.advanceLocked()
	out := make([]JobStatus, 0, len(p.all))
	for _, j := range p.all {
		out = append(out, p.statusLocked(j))
	}
	sort.Slice(out, func(i, k int) bool {
		a, b := out[i].ID, out[k].ID
		return len(a) > len(b) || len(a) == len(b) && a > b
	})
	return out
}

// Cancel removes a job from the platform. Only a cancel that can change
// state — the job is admitted or running when the call arrives — is journaled;
// anything else is a read of the clock.
func (p *Platform) Cancel(id string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.checkMutableLocked(); err != nil {
		return err
	}
	j, ok := p.all[id]
	if !ok {
		p.advanceLocked()
		return fmt.Errorf("serverless: unknown job %q", id)
	}
	if j.State != job.Admitted && j.State != job.Running {
		p.advanceLocked()
		return nil
	}
	return p.mutateLocked(&cancelOp{ID: id})
}

// cancelOp removes one job.
type cancelOp struct {
	ID string `json:"id"`
}

func (o *cancelOp) kind() string { return recCancel }
func (o *cancelOp) body() any    { return o }

// applyLocked removes the job at time now. Idempotent on an already-inactive
// job, which is what a job that finishes inside this record's own advance is,
// live and in replay alike.
func (o *cancelOp) applyLocked(p *Platform, now float64) error {
	p.applyAdvanceLocked(now)
	j, ok := p.all[o.ID]
	if !ok {
		return fmt.Errorf("serverless: unknown job %q", o.ID)
	}
	if j.State != job.Admitted && j.State != job.Running {
		return nil
	}
	p.removeActiveLocked(o.ID)
	if _, owned := p.cluster.Placement(o.ID); owned {
		if err := p.cluster.Release(o.ID); err != nil {
			return err
		}
	}
	j.State = job.Cancelled
	j.GPUs = 0 // a cancelled job holds no workers: status must not show GPUs or an estimated finish
	delete(p.infeasible, o.ID)
	p.eventLocked(now, obs.KindCancel, o.ID)
	p.rescheduleLocked(now)
	return nil
}

// Cluster returns the cluster summary.
func (p *Platform) Cluster() ClusterStatus {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.advanceLocked()
	running := 0
	for _, j := range p.active {
		if j.GPUs > 0 {
			running++
		}
	}
	return ClusterStatus{
		TotalGPUs:   p.cluster.TotalGPUs(),
		FreeGPUs:    p.cluster.FreeGPUs(),
		Running:     running,
		Admitted:    len(p.active),
		Completed:   p.completed,
		Dropped:     p.dropped,
		DownServers: len(p.down),
		PlatformSec: p.lastTick,
	}
}

// PlanEntry is one job's planned allocation over future slots — the output
// of Algorithm 2 exposed for observability. Levels[t] is the worker count
// planned for [now + t·SlotSec, now + (t+1)·SlotSec). FinishSec is absent
// when the plan cannot finish inside its horizon.
type PlanEntry struct {
	JobID     string   `json:"job_id"`
	SlotSec   float64  `json:"slot_sec"`
	Levels    []int    `json:"levels"`
	Satisfied bool     `json:"satisfied"`
	FinishSec *float64 `json:"finish_sec,omitempty"`
}

// Plans returns the scheduler's current allocation plan per active job.
func (p *Platform) Plans() []PlanEntry {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.advanceLocked()
	plans := p.ef.Plans(p.lastTick, p.active, p.capLocked())
	out := make([]PlanEntry, 0, len(plans))
	for id, a := range plans {
		pe := PlanEntry{
			JobID:     id,
			SlotSec:   p.ef.SlotSec(),
			Levels:    a.PerSlot(),
			Satisfied: a.Satisfied,
		}
		if fin := a.FinishTime(p.ef.SlotSec()); !math.IsInf(fin, 1) {
			fin += p.lastTick
			pe.FinishSec = &fin
		}
		out = append(out, pe)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].JobID < out[k].JobID })
	return out
}

// Tick advances the platform to the current clock reading, completing jobs
// and rescheduling; the server calls it periodically. It is also the
// snapshot driver for read-heavy periods: advance records accumulate even
// without mutations, and the periodic tick gives the store a chance to
// truncate them.
func (p *Platform) Tick() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.advanceLocked()
	p.maybeSnapshotLocked()
}

// advanceLocked is the journaled advance of everything that is not a
// mutation: reads, ticks, and mutation calls that turn out to have nothing to
// record. lastTick is state — later submit times and deadlines are measured
// against it — so the clock reading gets a record of its own: durable when
// applying it will retire a job or run a due wake-up (scheduling state
// changes), non-durable for a pure time observation, whose loss on power
// failure only rewinds idle time nothing was acknowledged against. A mutation
// does not come through here: its own record is its advance (mutateLocked).
func (p *Platform) advanceLocked() {
	now := p.Now()
	if now <= p.lastTick || p.closing || p.broken != nil {
		// After shutdown begins the final snapshot must remain the final
		// state; after a journal failure applying anything would break
		// record-then-apply. Either way, time stops.
		return
	}
	if err := p.commitLocked(advanceOp{}, now); err != nil {
		return // the journal failed and wedged the platform: time stops here
	}
}

// applyAdvanceLocked accrues progress since the last tick up to now, retires
// completed jobs, and reschedules if anything changed or the last decision's
// wake-up has come. Every op's apply begins with it: a journal record at
// time t means "advance to t, then apply".
func (p *Platform) applyAdvanceLocked(now float64) {
	dt := now - p.lastTick
	if dt <= 0 {
		return
	}
	changed := p.wake > 0 && p.wake <= now
	for _, j := range p.active {
		j.Advance(p.lastTick, dt)
	}
	kept := p.active[:0]
	for _, j := range p.active {
		if !j.Done() {
			kept = append(kept, j)
			continue
		}
		// Conservative: the completion is stamped with the observing tick.
		p.eng.Retire(now, j)
		p.completed++
		delete(p.infeasible, j.ID)
		changed = true
	}
	p.active = kept
	p.lastTick = now
	if changed {
		p.rescheduleLocked(now)
	}
}

// rescheduleLocked applies a fresh scheduling decision, then refreshes the
// gauges.
func (p *Platform) rescheduleLocked(now float64) {
	p.wake = p.eng.Reschedule(now, p.active, p.capLocked())
	p.gaugesLocked()
}

// gaugesLocked refreshes the utilization gauges after a scheduling pass:
// allocated GPUs (total and per tenant) and Eq. 8 cluster efficiency.
func (p *Platform) gaugesLocked() {
	used := 0
	eff := 0.0
	byTenant := make(map[string]int, len(p.tenantsSeen))
	for _, j := range p.active {
		if j.GPUs <= 0 {
			continue
		}
		used += j.GPUs
		if j.Tenant != "" {
			byTenant[j.Tenant] += j.GPUs
		}
		eff += sched.Efficiency(j)
	}
	p.obs.SetUsedGPUs(used)
	p.obs.SetClusterEfficiency(eff / float64(p.cluster.TotalGPUs()))
	for t := range p.tenantsSeen {
		p.obs.SetTenantGPUs(t, byTenant[t])
	}
}

// Allocations returns the current worker-count snapshot per active job, the
// state an executor reconciles its running workers against (e.g. right after
// registering one for a freshly admitted job).
func (p *Platform) Allocations() map[string]int {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.advanceLocked()
	alloc := make(map[string]int, len(p.active))
	for _, j := range p.active {
		alloc[j.ID] = j.GPUs
	}
	return alloc
}

// PlacementOf returns the buddy block a running job occupies.
func (p *Platform) PlacementOf(id string) (topology.Block, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cluster.Placement(id)
}

// addJobLocked enters a job into the job table.
func (p *Platform) addJobLocked(j *job.Job) {
	p.all[j.ID] = j
	if j.Tenant != "" {
		p.tenantsSeen[j.Tenant] = true
	}
	if p.store != nil {
		p.snap.pending = append(p.snap.pending, j)
	}
}

func (p *Platform) removeActiveLocked(id string) {
	kept := p.active[:0]
	for _, j := range p.active {
		if j.ID != id {
			kept = append(kept, j)
		}
	}
	p.active = kept
}

func (p *Platform) statusLocked(j *job.Job) JobStatus {
	s := JobStatus{
		ID:          j.ID,
		User:        j.User,
		Tenant:      j.Tenant,
		Model:       j.Model.Name,
		GlobalBatch: j.GlobalBatch,
		State:       j.State.String(),
		Class:       j.Class.String(),
		GPUs:        j.GPUs,
		DoneIters:   j.DoneIters,
		TotalIters:  j.TotalIters,
		SubmitTime:  j.SubmitTime,
	}
	if j.HasDeadline() {
		s.Deadline = j.Deadline
	}
	if j.GPUs > 0 {
		s.LocalBatch = j.GlobalBatch / j.GPUs
		if done := j.PredictFinish(p.lastTick); !math.IsInf(done, 1) {
			s.EstimatedDone = done
		}
		if b, ok := p.cluster.Placement(j.ID); ok {
			s.Placement = b.String()
		}
	}
	if j.State == job.Completed {
		s.Completion = j.CompletionTime
	}
	if offer, ok := p.infeasible[j.ID]; ok {
		s.DeadlineAtRisk = true
		s.EarliestFeasibleSec = offer
	}
	return s
}
