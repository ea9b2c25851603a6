// Package frontdoor is the sharded multi-tenant admission tier in front of
// the serverless control plane (DESIGN.md §16). A stateless HTTP front door
// accepts submissions tagged with a tenant namespace, applies per-tenant
// token-bucket rate limits and GPU quotas, routes each surviving arrival to
// a control-plane shard (deterministic tenant→shard hashing, with a
// spare-GPU rebalancer spilling load off hot partitions), and
// batches arrivals per shard so one journaled admission batch — and one
// plan-cache fold — amortizes across N submissions. Each shard is a full
// serverless.Platform owning a disjoint cluster partition with its own
// WAL+snapshot store, so shards recover independently and their decision
// trails stay byte-identical under crash replay.
package frontdoor

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/elasticflow/elasticflow/internal/job"
	"github.com/elasticflow/elasticflow/internal/obs"
	"github.com/elasticflow/elasticflow/internal/obs/tracing"
	"github.com/elasticflow/elasticflow/internal/serverless"
	"github.com/elasticflow/elasticflow/internal/store"
	"github.com/elasticflow/elasticflow/internal/topology"
)

// ErrRateLimited rejects a submission that exhausted its tenant's token
// bucket; HTTP maps it to 429.
var ErrRateLimited = fmt.Errorf("frontdoor: tenant rate limit exceeded")

// ErrQuotaExceeded rejects a submission whose tenant already holds its GPU
// quota; HTTP maps it to 403.
var ErrQuotaExceeded = fmt.Errorf("frontdoor: tenant GPU quota exhausted")

// Options configures a FrontDoor.
type Options struct {
	// Shards is the number of control-plane shards K (default 1).
	Shards int
	// ShardTopology is the cluster partition EACH shard owns (default the
	// platform default, 2 servers × 8 GPUs). Total capacity is
	// Shards × ShardTopology.
	ShardTopology topology.Config
	// Tenants is the per-tenant policy map; tenants absent from it are
	// unconstrained.
	Tenants map[string]TenantConfig
	// MaxBatch bounds how many arrivals one shard flush may carry
	// (default 64).
	MaxBatch int
	// RebalanceBelow is the free-capacity fraction under which a home
	// shard spills new arrivals to the shard with the most spare GPUs.
	// 0 means the default 0.25; a negative value never spills, keeping
	// routing strictly by hash.
	RebalanceBelow float64
	// Clock overrides the time source (tests, experiments). Must be
	// monotonic.
	Clock func() time.Time
	// TimeScale fast-forwards the shard platforms' clocks (see
	// serverless.Options.TimeScale).
	TimeScale float64
	// Obs is the front door's own observability sink, carrying the
	// ef_frontdoor_* and aggregated ef_tenant_* series. Nil creates a
	// fresh one. Each shard keeps its own sink (reachable via
	// /v1/shards/{k}/metrics) so per-shard trails stay replayable.
	Obs *obs.Obs
	// StateDir, when set, gives every shard a durable WAL+snapshot store
	// under <StateDir>/shard-<k>. Shards holding recovered state are
	// recovered; empty directories start fresh. A StateDir holding journals
	// the Shards would not open is refused (see checkStateDir).
	StateDir string
	// SnapshotEvery is passed through to every shard's platform.
	SnapshotEvery int
}

// FrontDoor is the admission tier. All methods are safe for concurrent use.
type FrontDoor struct {
	shards   []*serverless.Platform
	batchers []*batcher
	o        *obs.Obs
	clock    func() time.Time
	below    float64

	// mu guards the tenant buckets and the usage/capacity caches. It is
	// never held across a call into a shard platform, so it stands outside
	// the platform's lock order.
	mu      sync.Mutex
	tenants map[string]*tenantState // guarded by mu
	usage   map[string]int          // GPUs held per tenant, refreshed per Tick. guarded by mu
	free    []int                   // spare GPUs per shard. guarded by mu
	total   []int                   // capacity per shard. guarded by mu
	stats   Stats                   // guarded by mu
}

// Stats is a point-in-time snapshot of the front door's batch count, which
// load generators read without scraping Prometheus text. Every other count
// is an ef_frontdoor_* / ef_tenant_* series.
type Stats struct {
	// Batches is the number of flushed admission batches (one journal
	// record each).
	Batches int
}

// Stats returns a copy of the counters.
func (fd *FrontDoor) Stats() Stats {
	fd.mu.Lock()
	defer fd.mu.Unlock()
	return fd.stats
}

// New builds the front door and its K shard platforms.
func New(opts Options) (*FrontDoor, error) {
	k := opts.Shards
	if k <= 0 {
		k = 1
	}
	maxBatch := opts.MaxBatch
	if maxBatch <= 0 {
		maxBatch = 64
	}
	below := opts.RebalanceBelow
	if below < 0 {
		below = 0
	}
	if opts.RebalanceBelow == 0 {
		below = 0.25
	}
	clock := opts.Clock
	if clock == nil {
		clock = time.Now
	}
	if err := checkStateDir(opts.StateDir, k); err != nil {
		return nil, err
	}
	o := opts.Obs
	if o == nil {
		o = obs.New(obs.Options{Clock: clock})
	}
	tenants := make(map[string]*tenantState, len(opts.Tenants))
	for name, cfg := range opts.Tenants {
		tenants[name] = &tenantState{cfg: cfg}
	}
	fd := &FrontDoor{
		o:       o,
		clock:   clock,
		below:   below,
		tenants: tenants,
		usage:   make(map[string]int),
		free:    make([]int, k),
		total:   make([]int, k),
	}
	for i := 0; i < k; i++ {
		popts := serverless.Options{
			Topology:      opts.ShardTopology,
			Clock:         clock,
			TimeScale:     opts.TimeScale,
			JobPrefix:     fmt.Sprintf("s%d-", i),
			Obs:           obs.New(obs.Options{Clock: clock, Tracer: tracing.New(uint64(i) + 1)}),
			SnapshotEvery: opts.SnapshotEvery,
		}
		var p *serverless.Platform
		var err error
		if opts.StateDir != "" {
			st, serr := store.Open(filepath.Join(opts.StateDir, fmt.Sprintf("shard-%d", i)), store.Options{})
			if serr != nil {
				fd.abort()
				return nil, serr
			}
			popts.Store = st
			if st.HasState() {
				p, err = serverless.Recover(popts)
			} else {
				p, err = serverless.NewPlatform(popts)
			}
		} else {
			p, err = serverless.NewPlatform(popts)
		}
		if err != nil {
			fd.abort()
			return nil, fmt.Errorf("frontdoor: shard %d: %w", i, err)
		}
		fd.shards = append(fd.shards, p)
		fd.batchers = append(fd.batchers, newBatcher(fd, p, maxBatch))
	}
	fd.refresh()
	return fd, nil
}

// checkStateDir refuses a state directory holding journals that k shards
// would not open: a shard-<n> directory with n ≥ k (the directory was written
// with more shards) or a journal at the top level (the layout of a server
// without shards). Starting over either would silently drop admissions that
// were acknowledged, so, as with a foreign journal format (DESIGN.md §11), the
// operator gets an error and no conversion.
func checkStateDir(dir string, k int) error {
	if dir == "" {
		return nil
	}
	entries, err := os.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("frontdoor: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		wal, _ := filepath.Match("wal-*.wal", name)
		snap, _ := filepath.Match("snap-*.snap", name)
		if wal || snap {
			return fmt.Errorf("frontdoor: state directory %s holds a journal at its top level (%s), where no shard reads it; shard k's journal lives in %s", dir, name, filepath.Join(dir, "shard-<k>"))
		}
		rest, isShard := strings.CutPrefix(name, "shard-")
		if n, err := strconv.Atoi(rest); isShard && err == nil && n >= k {
			return fmt.Errorf("frontdoor: state directory %s holds %s, but only %d shard(s) are configured; restart with at least %d", dir, name, k, n+1)
		}
	}
	return nil
}

// abort tears down already-built shards after a constructor failure. A
// shutdown error here cannot preempt the construction error the caller is
// already returning, so it is routed into the event log instead.
func (fd *FrontDoor) abort() {
	for _, b := range fd.batchers {
		b.close()
	}
	for _, p := range fd.shards {
		if err := p.Shutdown(); err != nil {
			fd.o.EventNow(obs.KindError, "", tracing.A("op", "frontdoor-abort"), tracing.A("err", err.Error()))
		}
	}
}

// Shards returns the shard count.
func (fd *FrontDoor) Shards() int { return len(fd.shards) }

// Shard returns shard k's platform (tests, per-shard HTTP delegation).
func (fd *FrontDoor) Shard(k int) *serverless.Platform { return fd.shards[k] }

// Obs returns the front door's own observability sink.
func (fd *FrontDoor) Obs() *obs.Obs { return fd.o }

// Enqueue runs the admission-tier checks and, if the submission survives,
// queues it onto its shard's batcher. It returns without waiting for the
// verdict — the open-loop entry point load generators drive. A non-nil
// error means the submission was rejected at the front door and never
// reached a journal.
func (fd *FrontDoor) Enqueue(req serverless.SubmitRequest) (*Ticket, error) {
	start := fd.clock()
	if err := serverless.ValidateSubmit(req); err != nil {
		fd.o.IncFrontdoorSubmission("invalid")
		return nil, err
	}
	shard, err := fd.gateAndRoute(req.Tenant, start)
	if err != nil {
		return nil, err
	}
	t, err := fd.batchers[shard].enqueue(req, start)
	if err != nil {
		fd.o.IncFrontdoorSubmission("error")
		return nil, err
	}
	return t, nil
}

// Submit is the closed-loop form: Enqueue plus waiting for the batched
// verdict.
func (fd *FrontDoor) Submit(req serverless.SubmitRequest) (serverless.JobStatus, error) {
	t, err := fd.Enqueue(req)
	if err != nil {
		return serverless.JobStatus{}, err
	}
	v := <-t.C
	return v.Status, v.Err
}

// gateAndRoute applies the tenant rate limit and GPU quota, then picks the
// shard. One lock hold covers bucket, quota cache and capacity cache.
func (fd *FrontDoor) gateAndRoute(tenant string, now time.Time) (int, error) {
	fd.mu.Lock()
	ts := fd.tenants[tenant]
	if ts != nil {
		if !ts.allow(now) {
			fd.mu.Unlock()
			fd.o.IncTenantRateLimited(tenant)
			fd.o.IncFrontdoorSubmission("rate-limited")
			return 0, ErrRateLimited
		}
		if ts.cfg.MaxGPUs > 0 && fd.usage[tenant] >= ts.cfg.MaxGPUs {
			fd.mu.Unlock()
			fd.o.IncTenantQuotaRejection(tenant)
			fd.o.IncFrontdoorSubmission("quota")
			return 0, ErrQuotaExceeded
		}
	}
	home := homeShard(tenant, len(fd.shards))
	shard, rebalanced := pickShard(home, fd.free, fd.total, fd.below)
	fd.mu.Unlock()
	if rebalanced {
		fd.o.IncFrontdoorRebalanced()
	}
	return shard, nil
}

// delivered hands a flushed batch's verdicts back to their tickets and
// records the front-door series: batch size, per-arrival admission latency,
// and verdict counts.
func (fd *FrontDoor) delivered(batch []*Ticket, sts []serverless.JobStatus, err error) {
	now := fd.clock()
	fd.mu.Lock()
	fd.stats.Batches++
	fd.mu.Unlock()
	fd.o.ObserveFrontdoorBatch(len(batch))
	for i, t := range batch {
		v := Verdict{Err: err, LatencySec: now.Sub(t.start).Seconds()}
		verdict := "error"
		if err == nil {
			v.Status = sts[i]
			switch v.Status.State {
			case job.Dropped.String(), "invalid":
				verdict = "drop"
			default:
				verdict = "admit"
			}
		}
		fd.o.IncFrontdoorSubmission(verdict)
		fd.o.ObserveFrontdoorAdmission(v.LatencySec)
		t.ch <- v
		close(t.ch)
	}
}

// Get routes a job-status read to the shard that owns the ID.
func (fd *FrontDoor) Get(id string) (serverless.JobStatus, error) {
	k, err := fd.shardOfJob(id)
	if err != nil {
		return serverless.JobStatus{}, err
	}
	return fd.shards[k].Get(id)
}

// Cancel routes a cancellation to the shard that owns the ID.
func (fd *FrontDoor) Cancel(id string) error {
	k, err := fd.shardOfJob(id)
	if err != nil {
		return err
	}
	return fd.shards[k].Cancel(id)
}

// List joins the shards' job lists in shard order, each newest first.
func (fd *FrontDoor) List() []serverless.JobStatus {
	var out []serverless.JobStatus
	for _, p := range fd.shards {
		out = append(out, p.List()...)
	}
	return out
}

// shardOfJob parses the "s<k>-" prefix shard platforms stamp on job IDs.
func (fd *FrontDoor) shardOfJob(id string) (int, error) {
	pfx, _, ok := strings.Cut(id, "-")
	if !ok || len(pfx) < 2 || pfx[0] != 's' {
		return 0, fmt.Errorf("frontdoor: job ID %q carries no shard prefix", id)
	}
	k, err := strconv.Atoi(pfx[1:])
	if err != nil || k < 0 || k >= len(fd.shards) {
		return 0, fmt.Errorf("frontdoor: job ID %q names unknown shard %q", id, pfx)
	}
	return k, nil
}

// TenantUsage returns GPUs held per tenant, summed across shards, as of the
// last refresh.
func (fd *FrontDoor) TenantUsage() map[string]int {
	fd.mu.Lock()
	defer fd.mu.Unlock()
	out := make(map[string]int, len(fd.usage))
	for t, g := range fd.usage {
		out[t] = g
	}
	return out
}

// Tick advances every shard platform and refreshes the quota and capacity
// caches — the front door's scheduling epoch. The server calls it
// periodically; tests and experiments call it to make quota enforcement
// observe the latest allocations.
func (fd *FrontDoor) Tick() {
	for _, p := range fd.shards {
		p.Tick()
	}
	fd.refresh()
}

// refresh recomputes the usage and spare-capacity caches from the shards
// (no fd.mu held while calling into them) and republishes the aggregated
// per-tenant gauges.
func (fd *FrontDoor) refresh() {
	usage := make(map[string]int)
	free := make([]int, len(fd.shards))
	total := make([]int, len(fd.shards))
	for k, p := range fd.shards {
		for t, g := range p.TenantUsage() {
			usage[t] += g
		}
		cl := p.Cluster()
		free[k], total[k] = cl.FreeGPUs, cl.TotalGPUs
	}
	fd.mu.Lock()
	// Keep tenants that drained to zero visible so their gauge drops to 0
	// instead of going stale.
	for t := range fd.usage {
		if _, ok := usage[t]; !ok {
			usage[t] = 0
		}
	}
	fd.usage = usage
	fd.free = free
	fd.total = total
	fd.mu.Unlock()
	for t, g := range usage {
		fd.o.SetTenantGPUs(t, g)
	}
}

// Shutdown drains every batcher (queued submissions still get verdicts) and
// gracefully shuts down every shard. Idempotent per shard.
func (fd *FrontDoor) Shutdown() error {
	for _, b := range fd.batchers {
		b.close()
	}
	var first error
	for _, p := range fd.shards {
		if err := p.Shutdown(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
