// Package core implements the ElasticFlow scheduler: deadline-driven
// admission control based on Minimum Satisfactory Share (§4.1), greedy
// elastic resource allocation by diminishing returns (§4.2), and the
// best-effort/soft-deadline extension (§4.4).
//
// The scheduler is purely algorithmic: it consumes job state and produces
// desired worker counts. Placement is delegated to the buddy allocator
// (package topology) and execution to the simulator or the live platform.
package core

import (
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/elasticflow/elasticflow/internal/job"
	"github.com/elasticflow/elasticflow/internal/obs"
	"github.com/elasticflow/elasticflow/internal/obs/tracing"
	"github.com/elasticflow/elasticflow/internal/plan"
	"github.com/elasticflow/elasticflow/internal/sched"
)

// Options configures the scheduler.
type Options struct {
	// SlotSec is the planning slot duration in seconds (default 60).
	SlotSec float64
	// PowerOfTwo restricts worker counts to powers of two so buddy
	// placement is fragmentation-free (§4.3). Default true; the false
	// setting runs Algorithms 1–2 with unit increments, for the ablation.
	PowerOfTwo bool
	// HorizonSlots caps the planning horizon for jobs without deadlines
	// (default 7 days of slots).
	HorizonSlots int
	// SafetyRescales is the per-job rescale budget: the number of rescale
	// overheads subtracted from each deadline during planning, absorbing
	// the scaling costs the slot-level model does not see (default 5).
	// Rescales actually charged to a job (job.Rescales, incremented by the
	// simulator/platform on every real rescale including failure-driven
	// restarts) reduce the remaining margin — see rescaleMargin — and once
	// the budget is spent the allocator stops volunteering the job for
	// further expansions. The margin is empirical, not a proof (fuzzing
	// found misses at 3 with five-rescale churn; see ROADMAP.md).
	SafetyRescales float64
	// ReserveGPUs withholds capacity from admission control so that
	// guarantees survive node failures (§4.4 "node failures"): admission
	// plans against G−ReserveGPUs while allocation still uses everything
	// that is up.
	ReserveGPUs int
	// DisablePlanCache turns off the incremental fill-pass cache so every
	// Admit/Schedule recomputes plans from scratch. Decisions are
	// byte-identical either way (the cache replays the exact operation
	// sequence from snapshots); the switch exists for cold-path benchmarks
	// and the determinism cross-checks. The same plan.Filler code runs with
	// it set, only with no block attached: every plan is a heap slice.
	DisablePlanCache bool
	// Obs, when non-nil, receives decision traces on its event bus: one
	// "sched-admit" event per admission verdict explaining why (which
	// feasibility check failed, the victim whose guarantee would break,
	// the candidate's minimum satisfactory share) and one "sched-alloc"
	// event per Schedule call summarizing the allocation round (spare-GPU
	// adoptions and their winners, demoted jobs, slot-0 usage). Tracing is
	// purely additive — decisions never read the sink back. No counter is
	// derived from the sched-* kinds: the admission series counts the
	// host's admit/drop event, so a verdict is counted once.
	Obs *obs.Obs
}

func (o Options) withDefaults() Options {
	if o.SlotSec <= 0 {
		o.SlotSec = 60
	}
	if o.HorizonSlots <= 0 {
		o.HorizonSlots = int(7 * 24 * 3600 / o.SlotSec)
		if o.HorizonSlots <= 0 {
			o.HorizonSlots = 1
		}
		// Cap the horizon: sub-second slots would otherwise make plans
		// enormous.
		if o.HorizonSlots > 1<<20 {
			o.HorizonSlots = 1 << 20
		}
	}
	if o.SafetyRescales == 0 {
		o.SafetyRescales = 5
	}
	return o
}

// ElasticFlow is the scheduler. Decisions are pure functions of the current
// job set, exactly as the paper recomputes plans on every scheduling event
// (§4.2); the only state between calls is the plan cache, a transparent
// memo of fill passes that never changes a decision (see plancache.go), and
// the storage the passes of one instant are computed in.
//
// A scheduler is single-goroutine, and what it computes lives as long as the
// cache would keep it: plans reachable from an unexported result (fillPass
// records, a verdict's mss, allocate's entries) are valid until the
// scheduler is asked about another instant or InvalidatePlanCache is called —
// see "Where plans live" in plancache.go.
// What the exported methods return is the caller's to keep: Schedule's
// Decision holds no plan, and Plans copies its levels out.
type ElasticFlow struct {
	opts Options

	mu      sync.Mutex
	gen     uint64        // guarded by mu
	at      uint64        // guarded by mu; bits of the instant the cached passes and the block belong to
	states  [2]*fillState // guarded by mu; most recently used first
	spare   []*fillState  // guarded by mu; dropped passes whose record arrays the next ones reuse (at most two)
	filler  *plan.Filler  // guarded by mu; the one filler every pass runs in, its Arena the instant's block
	fps     []uint64      // guarded by mu; job fingerprints of the pass being matched
	jobs    []prioJob     // guarded by mu; allocate's entries
	queue   prioQueue     // guarded by mu; allocate's heap over them
	winners []byte        // guarded by mu; traceSchedule's winners field, built in place
}

// New creates an ElasticFlow scheduler. The zero Options select the paper's
// configuration: 60-second slots with power-of-two buddy-compatible
// allocations.
func New(opts Options) *ElasticFlow {
	opts = opts.withDefaults()
	return &ElasticFlow{opts: opts, filler: plan.NewFiller(0, opts.SlotSec, opts.PowerOfTwo)}
}

// NewDefault returns a scheduler with the paper's default configuration.
func NewDefault() *ElasticFlow { return New(Options{PowerOfTwo: true}) }

// WithObs injects the observability sink after construction (the serverless
// platform uses this to wire the default scheduler to its own Obs) and
// returns e for chaining.
func (e *ElasticFlow) WithObs(o *obs.Obs) *ElasticFlow {
	e.opts.Obs = o
	return e
}

// Name implements the scheduler interface used by the simulator.
func (e *ElasticFlow) Name() string { return "elasticflow" }

// SlotSec returns the planning slot duration.
func (e *ElasticFlow) SlotSec() float64 { return e.opts.SlotSec }

// demand converts an SLO job's state at time now into a filling demand
// bounded by its deadline.
func (e *ElasticFlow) demand(j *job.Job, now float64) plan.Demand {
	d := plan.Demand{
		Curve:     j.Curve,
		Remaining: j.RemainingIters(),
		MinGPUs:   j.MinGPUs,
		MaxGPUs:   j.MaxGPUs,
	}
	if !j.HasDeadline() || j.Class != job.SLO {
		return e.demandBestEffort(j)
	}
	safety := e.rescaleMargin(j)
	slots := int(math.Floor((j.Deadline - now - safety) / e.opts.SlotSec))
	if slots < 0 {
		slots = 0
	}
	if slots > e.opts.HorizonSlots {
		slots = e.opts.HorizonSlots
	}
	d.DeadlineSlot = slots
	return d
}

// rescaleMargin is the deadline slack still reserved for a job's future
// rescales at replan time: the SafetyRescales budget minus the rescales the
// job has actually been charged (job.Rescales — including failure-driven
// restarts), floored at one overhead so a plan is never laid flush against
// the deadline. Spent rescales therefore stop eroding the margin twice:
// their cost is already in the elapsed clock, and only the *remaining*
// budget is held back. Negative budgets keep the legacy fixed margin.
// Margins reserve MoveOverheadSec — the migration-priced cost when the
// checkpoint has been sized — because any reserved rescale may also move
// the job across a link; a margin that only covers an in-place rescale
// lays the plan too close to the deadline.
func (e *ElasticFlow) rescaleMargin(j *job.Job) float64 {
	s := e.opts.SafetyRescales
	if s < 0 {
		return s * j.MoveOverheadSec()
	}
	rem := s - float64(j.Rescales)
	if rem < 1 {
		rem = 1
	}
	return rem * j.MoveOverheadSec()
}

// demandBestEffort builds the demand of a job scheduled without a deadline
// guarantee (§4.4): its deadline is conceptually infinite, realized as a
// synthetic horizon of twice the time the job needs at its minimum worker
// count (plus slack for contention), so that progressive filling yields the
// minimum level and the greedy allocator can price marginal returns on the
// same GPU-time scale as SLO jobs.
func (e *ElasticFlow) demandBestEffort(j *job.Job) plan.Demand {
	d := plan.Demand{
		Curve:     j.Curve,
		Remaining: j.RemainingIters(),
		MinGPUs:   j.MinGPUs,
		MaxGPUs:   j.MaxGPUs,
	}
	slots := e.opts.HorizonSlots
	minTput := j.Curve.At(maxInt(j.MinGPUs, j.Curve.MinWorkers()))
	if minTput > 0 {
		need := 2*int(math.Ceil(j.RemainingIters()/(minTput*e.opts.SlotSec))) + 16
		if need < slots {
			slots = need
		}
	}
	d.DeadlineSlot = slots
	return d
}

// splitJobs returns the SLO jobs of active sorted by deadline (ties by ID for
// determinism), and the best-effort/soft-deadline jobs in submission order.
// slo is sized once from active: a refusal splits the active set twice, once
// for its verdict and once for its counter-offer, and appends would allocate
// per doubling each time.
func splitJobs(active []*job.Job) (slo, be []*job.Job) {
	slo = make([]*job.Job, 0, len(active))
	for _, j := range active {
		if j.Class == job.SLO {
			slo = append(slo, j)
		} else {
			be = append(be, j)
		}
	}
	slices.SortFunc(slo, deadlineOrder)
	slices.SortFunc(be, submitOrder)
	return slo, be
}

// deadlineOrder is the fill order of SLO jobs: earliest deadline first.
// Ordered comparisons instead of float != keep the comparator exact (an
// epsilon here would break strict weak ordering); ties fall through to the ID
// for determinism, which makes the order total.
func deadlineOrder(a, b *job.Job) int {
	switch {
	case a.Deadline < b.Deadline:
		return -1
	case a.Deadline > b.Deadline:
		return 1
	}
	return strings.Compare(a.ID, b.ID)
}

// submitOrder is the order of best-effort jobs: submission time, then ID.
func submitOrder(a, b *job.Job) int {
	switch {
	case a.SubmitTime < b.SubmitTime:
		return -1
	case a.SubmitTime > b.SubmitTime:
		return 1
	}
	return strings.Compare(a.ID, b.ID)
}

// deadlineBefore reports whether a fills before b in deadlineOrder.
func deadlineBefore(a, b *job.Job) bool { return deadlineOrder(a, b) < 0 }

// position is where j falls in slo, SLO jobs in deadline order: the number
// of them that fill before it.
func position(slo []*job.Job, j *job.Job) int {
	return sort.Search(len(slo), func(i int) bool { return deadlineBefore(j, slo[i]) })
}

// Admit implements Algorithm 1. It checks whether adding cand to the active
// SLO jobs leaves every deadline satisfiable by progressive filling in
// deadline order; if not, cand is dropped. Best-effort and soft-deadline
// jobs are always admitted (§4.4).
//
// A previously admitted job whose own deadline has become unsatisfiable
// (it runs demoted, §4.4) must not poison future admissions: the check
// rejects cand only when cand itself cannot be satisfied or when admitting
// cand turns a currently satisfiable job unsatisfiable. A refused candidate's
// offer is CounterOffer's.
func (e *ElasticFlow) Admit(now float64, cand *job.Job, active []*job.Job, g int) bool {
	v := admitVerdict{ok: true, reason: "no-guarantee-needed"}
	if cand.Class == job.SLO {
		slo, _ := splitJobs(active)
		v = e.verdict(now, cand, slo, e.admitCapacity(g))
	}
	e.traceAdmit(now, cand, v)
	return v.ok
}

// admitVerdict is the explained outcome of one Algorithm 1 run: whether the
// candidate is admitted and, when not, which check failed.
type admitVerdict struct {
	ok bool
	// reason is "ok" (deadline guaranteed), "no-guarantee-needed"
	// (best-effort/soft-deadline, always admitted), "candidate-infeasible"
	// (the candidate's own deadline cannot be met by progressive filling
	// after every earlier-deadline job takes its share), or
	// "breaks-guarantee" (admitting would turn a currently satisfiable job's
	// deadline unsatisfiable).
	reason string
	// victim is the job whose guarantee would break, for
	// "breaks-guarantee".
	victim string
	// mss is the candidate's minimum satisfactory share fill, valid when
	// the candidate itself was feasible. Its levels live in the scheduler's
	// block: readable until the scheduler is asked about another instant.
	mss plan.Allocation
}

// verdict runs Algorithm 1 — the pure feasibility decision, without tracing —
// for cand against slo, the active SLO jobs in deadline order, and reports
// which check decided it. Every admission decision goes through here, and
// every EarliestDeadline probe through verdictGiven.
//
// Progressive filling is a fold in deadline order, so the jobs ahead of the
// candidate fill the same with or without it, and only the jobs behind it
// can lose their guarantee: one that comes out unsatisfied with the candidate
// although it was satisfiable without is the victim, and one that was
// already unsatisfiable (demoted, §4.4) does not poison the admission.
// Unsatisfiable jobs other than the candidate reserve their recovery plan,
// mirroring their demotion in Schedule. A verdict is therefore at most two
// passes. The fold with the candidate ends at the candidate when the
// candidate itself is unsatisfiable, and at the first victim when sat tells
// victims apart; otherwise it runs through the tail, and if tail jobs come
// out unsatisfied, one fold without the candidate — from the shared prefix,
// up to the last of them — tells which was satisfiable before.
//
// The second pass may recycle the records of the first, so everything the
// verdict needs of the first — mss by value, the unsatisfied positions — is
// read before it runs; the levels mss points to stay valid for the rest of
// the instant.
func (e *ElasticFlow) verdict(now float64, cand *job.Job, slo []*job.Job, g int) admitVerdict {
	return e.verdictGiven(now, cand, slo, g, nil)
}

// verdictGiven is verdict given sat, what the fold without the candidate
// already says — whether each job of slo comes out satisfied — or nil. With
// sat the verdict is one pass, ending at the candidate or the first victim.
func (e *ElasticFlow) verdictGiven(now float64, cand *job.Job, slo []*job.Job, g int, sat []bool) admitVerdict {
	k := position(slo, cand)
	with := make([]*job.Job, 0, len(slo)+1)
	with = append(append(append(with, slo[:k]...), cand), slo[k:]...)
	recs, _ := e.fillPass(now, with, nil, cand.ID, g, func(i int) bool {
		return i == k || i > k && sat != nil && sat[i-1]
	})
	mss := recs[k].fill
	if !recs[k].satisfied {
		return admitVerdict{reason: "candidate-infeasible", mss: mss}
	}
	var unsat []int // positions in slo of the tail jobs the candidate leaves unsatisfied
	for i := k + 1; i < len(recs); i++ {
		if !recs[i].satisfied {
			unsat = append(unsat, i-1)
		}
	}
	satisfiedWithout := func(i int) bool { return sat[i] }
	if sat == nil && len(unsat) > 0 {
		without, _ := e.fillPass(now, slo[:unsat[len(unsat)-1]+1], nil, "", g, nil)
		satisfiedWithout = func(i int) bool { return without[i].satisfied }
	}
	for _, i := range unsat {
		if satisfiedWithout(i) {
			return admitVerdict{reason: "breaks-guarantee", victim: slo[i].ID, mss: mss}
		}
	}
	return admitVerdict{ok: true, reason: "ok", mss: mss}
}

// traceAdmit publishes the admission decision trace. Its span is the plan
// behind the verdict, under the candidate's lifecycle root (the host opens
// the root before calling Admit).
func (e *ElasticFlow) traceAdmit(now float64, cand *job.Job, v admitVerdict) {
	o := e.opts.Obs
	if o == nil {
		return
	}
	verdict := "drop"
	if v.ok {
		verdict = "admit"
	}
	fields := []tracing.Attr{tracing.A("verdict", verdict), tracing.A("reason", v.reason)}
	if v.victim != "" {
		fields = append(fields, tracing.A("victim", v.victim))
	}
	if len(v.mss.Levels) > 0 {
		fields = append(fields,
			tracing.A("mss_gpus", v.mss.GPUsAt(0)),
			tracing.A("mss_satisfied", v.mss.Satisfied),
			tracing.A("mss_finish_slot", v.mss.FinishSlot))
	}
	o.Event(obs.Event{Time: now, Kind: obs.KindSchedAdmit, JobID: cand.ID, Fields: fields})
}

// admitCapacity is the capacity admission plans against: the failure reserve
// is withheld so that guarantees survive losing that much (§4.4).
func (e *ElasticFlow) admitCapacity(g int) int {
	return max(g-e.opts.ReserveGPUs, 1)
}

// EarliestDeadline returns the soonest deadline admission control could
// guarantee for cand given the currently admitted jobs — what a platform
// offers a user whose requested deadline was rejected ("the earliest we
// could promise is …"). The offer is a feasibility boundary: admissible, and
// the deadline one planning slot earlier is not. ok is false when even the
// planning horizon cannot fit the job.
func (e *ElasticFlow) EarliestDeadline(now float64, cand *job.Job, active []*job.Job, g int) (float64, bool) {
	slo, _ := splitJobs(active)
	return e.earliestDeadline(now, cand, slo, e.admitCapacity(g), 0)
}

// CounterOffer is the offer for a candidate Admit has just refused at now:
// EarliestDeadline searched from the refused deadline's slot on, never from
// zero. With demoted jobs in the active set feasibility is not strictly
// monotone in the deadline, and an offer earlier than the deadline just
// refused would contradict the refusal.
func (e *ElasticFlow) CounterOffer(now float64, cand *job.Job, active []*job.Job, g int) (float64, bool) {
	slo, _ := splitJobs(active)
	return e.earliestDeadline(now, cand, slo, e.admitCapacity(g), e.demand(cand, now).DeadlineSlot)
}

// earliestDeadline searches the planning slots from lo up, against slo (the
// active SLO jobs in deadline order) and admission capacity g, for the first
// slot whose deadline a verdict admits.
//
// A later deadline only moves the candidate later in the deadline order, and
// the jobs ahead of it fill the same whatever its deadline, so the search
// needs the fold without the candidate once, not a verdict per probe: it is
// computed first, and what it says of each job turns every verdict below into
// one pass that ends at the first victim. The horizon verdict comes next: it
// answers ok=false when even the horizon cannot fit. firstFit walks the fold
// from lo up to the first slot where the candidate alone fits; every slot
// before is refused as candidate-infeasible, so when the verdict there admits,
// that slot is the answer — whether or not feasibility is monotone.
//
// When it does not, the candidate fits but breaks the guarantee of a victim
// behind it. Later slots are then probed by folds that end at that victim
// (a refusal there is the whole verdict's), galloping forward and bisecting
// the last step to the first slot where the candidate gets past it, and that
// slot gets the next full verdict — which admits, or names a victim further
// back to search past. Either way the offer keeps the boundary property —
// the slot offered is admitted and the one before it refused — and equals the
// first admissible slot whenever feasibility is monotone in the deadline.
func (e *ElasticFlow) earliestDeadline(now float64, cand *job.Job, slo []*job.Job, g, lo int) (float64, bool) {
	if cand.Class != job.SLO {
		// Only SLO jobs take part in the deadline-ordered fold.
		return 0, false
	}
	c := *cand
	at := func(slot int) *job.Job {
		c.Deadline = now + e.rescaleMargin(cand) + float64(slot+1)*e.opts.SlotSec
		return &c
	}
	without, _ := e.fillPass(now, slo, nil, "", g, nil)
	sat := make([]bool, len(slo))
	for i := range sat {
		sat[i] = without[i].satisfied
	}
	// through is the verdict over the jobs of slo[:n] only — whether the
	// candidate fits and hurts none of them — or over the jobs ahead of the
	// candidate when it sits further back.
	through := func(slot, n int) admitVerdict {
		c := at(slot)
		n = max(n, position(slo, c))
		return e.verdictGiven(now, c, slo[:n], g, sat[:n])
	}
	hi := e.opts.HorizonSlots
	if !through(hi, len(slo)).ok {
		return 0, false
	}
	slot := e.firstFit(now, at, slo, g, lo, hi)
	for {
		v := through(slot, len(slo))
		if v.ok {
			return at(slot).Deadline, true
		}
		n := 1 + slices.IndexFunc(slo, func(j *job.Job) bool { return j.ID == v.victim })
		slot = gallop(slot, hi, func(s int) bool { return through(s, n).ok })
	}
}

// gallop returns the first slot after refused, up to hi (which is admitted),
// that ok admits: steps of 1, 2, 4, … forward, then a bisection of the last
// one. The slot before the one returned is refused.
func gallop(refused, hi int, ok func(int) bool) int {
	lo := refused + 1
	for step := 1; ; step *= 2 {
		next := min(refused+step, hi)
		if next == hi || ok(next) {
			hi = next
			break
		}
		refused = next
		lo = next + 1
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if ok(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// firstFit returns the first slot in [lo, hi] at which the candidate (at(slot)
// is the candidate with that slot's deadline) comes out satisfied in the fold
// without it, filled at its own position of the deadline order. hi is known
// to fit: the horizon verdict admitted it.
//
// The slots that put the candidate at position k of the deadline order form a
// bracket; within one the jobs ahead are fixed, and with a fixed prefix more
// slots cannot un-fit a plan, so one Fill at a bracket's last slot decides the
// whole bracket. The walk therefore commits the fold's recorded plans one
// position at a time — no pass, no fingerprints — testing each bracket's last
// slot, and bisects with single Fills inside the first bracket that fits.
func (e *ElasticFlow) firstFit(now float64, at func(int) *job.Job, slo []*job.Job, g, lo, hi int) int {
	kHi := position(slo, at(hi))
	k := position(slo, at(lo))

	e.mu.Lock()
	defer e.mu.Unlock()
	st, _, f := e.passLocked(now, slo, nil, "", g, nil) // the fold the search began with: a full hit
	st.seek(f, k)
	fits := func(slot int) bool {
		e.countPlanCache(0, 1)
		return f.Fill(e.demand(at(slot), now)).Satisfied
	}
	for start := lo; ; k++ {
		end := hi // the last slot of position k's bracket
		if k < kHi {
			end = start - 1 + sort.Search(hi-start+1, func(i int) bool { return !deadlineBefore(at(start+i), slo[k]) })
		}
		if end >= start && (k == kHi || fits(end)) {
			for start < end {
				mid := (start + end) / 2
				if fits(mid) {
					end = mid
				} else {
					start = mid + 1
				}
			}
			return start
		}
		start = max(start, end+1)
		f.Commit(st.recs[k].committed())
	}
}

// MinimumSatisfactoryShare returns the MSS plan for each active job at time
// now: the per-slot worker counts that just meet every deadline (§4.1).
// Jobs appear in deadline order. Unsatisfiable jobs (which admission would
// have rejected) receive their maximal best-effort plan.
func (e *ElasticFlow) MinimumSatisfactoryShare(now float64, active []*job.Job, g int) map[string]plan.Allocation {
	slo, _ := splitJobs(active)
	f := plan.NewFiller(g, e.opts.SlotSec, e.opts.PowerOfTwo)
	out := make(map[string]plan.Allocation, len(slo))
	for _, j := range slo {
		a := f.FillCommit(e.demand(j, now))
		if !a.Satisfied {
			f.Commit(a)
		}
		out[j.ID] = a
	}
	return out
}

// prioJob is a priority-queue entry for Algorithm 2.
type prioJob struct {
	j          *job.Job
	d          plan.Demand
	bestEffort bool            // scheduled without a deadline guarantee
	cur        plan.Allocation // committed allocation
	alt        plan.Allocation // probe: cur priced with slot 0 at nextStep (no runs)
	nextStep   int             // slot-0 worker count of the probe
	priority   float64         // GPU time saved by the probe
	won        int             // spare-GPU rounds won (adopted probes)
	late       bool            // admitted job racing its expired deadline
}

// prioQueue is Algorithm 2's max-heap of probes by priority. push and pop
// sift exactly as container/heap's Push and Pop do, comparison for
// comparison, so entries of equal priority pop in the order they always have.
type prioQueue []*prioJob

// push adds p to the queue.
func (q *prioQueue) push(p *prioJob) {
	h := append(*q, p)
	for k := len(h) - 1; ; {
		i := (k - 1) / 2 // parent
		if i == k || !(h[k].priority > h[i].priority) {
			break
		}
		h[i], h[k] = h[k], h[i]
		k = i
	}
	*q = h
}

// pop removes and returns the entry of highest priority.
func (q *prioQueue) pop() *prioJob {
	h := *q
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	for i := 0; ; {
		k := 2*i + 1 // left child
		if k >= n {
			break
		}
		if r := k + 1; r < n && h[r].priority > h[k].priority {
			k = r
		}
		if !(h[k].priority > h[i].priority) {
			break
		}
		h[i], h[k] = h[k], h[i]
		i = k
	}
	p := h[n]
	h[n] = nil
	*q = h[:n]
	return p
}

// nextStep returns the next slot-0 worker count to probe above cur for a
// job: the memory floor when idle, then +1 (unit mode) or ×2 (power-of-two
// mode), capped by MaxGPUs. Returns 0 when no step exists.
func (e *ElasticFlow) nextStep(j *job.Job, cur int) int {
	var next int
	switch {
	case cur == 0:
		next = maxInt(1, j.MinGPUs)
		if e.opts.PowerOfTwo {
			p := 1
			for p < next {
				p *= 2
			}
			next = p
		}
	case e.opts.PowerOfTwo:
		next = cur * 2
	default:
		next = cur + 1
	}
	if j.MaxGPUs > 0 && next > j.MaxGPUs {
		return 0
	}
	return next
}

// probe computes the marginal-return candidate for p's job: the current
// plan with slot 0 raised to the next step (Algorithm 2 lines 5–10; the
// tail is kept rather than minimally re-filled so the probe is a strict
// improvement — see plan.RaiseSlot0). p.cur stays committed in f: a probe
// reads the usage grid at slot 0 only, where p's own share counts as free.
// Returns false when no beneficial probe exists.
func (e *ElasticFlow) probe(f *plan.Filler, p *prioJob) bool {
	cur0 := p.cur.GPUsAt(0)
	step := e.nextStep(p.j, cur0)
	if step == 0 {
		return false
	}
	// Line 10: only consider probes that actually finish the job earlier.
	// When adopting the probe would rescale a running job away from its
	// live worker count, the gain must also exceed the checkpoint/restore
	// freeze the rescale costs — expansions that save less than they
	// stall for are churn, and churn is what erodes deadline guarantees.
	need := 1e-12
	started := p.j.GPUs > 0 || p.j.DoneIters > 0
	if started && cur0 == p.j.GPUs && step != p.j.GPUs {
		// A guaranteed job that has already consumed its SafetyRescales
		// budget stops volunteering for expansions: what margin remains
		// is reserved for mandatory replans (contention, failures). The
		// refusal reads no price, so it comes before the probe is priced.
		if !p.bestEffort && e.opts.SafetyRescales >= 0 && float64(p.j.Rescales) >= e.opts.SafetyRescales {
			return false
		}
		// The expansion may relocate the job, so the gain must beat the
		// migration-priced cost, not just the in-place rescale.
		need = p.j.MoveOverheadSec()
	}
	alt, ok := f.RaiseSlot0(p.d, p.cur, step, f.FreeAt(0)+cur0)
	if !ok {
		// The raised level does not fit slot 0 or is not a feasible
		// worker count: no usable probe.
		return false
	}
	if !(p.cur.FinishTime(e.opts.SlotSec)-alt.FinishTime(e.opts.SlotSec) > need) {
		return false
	}
	// For guaranteed jobs the probe must still satisfy the deadline.
	if !p.bestEffort && p.cur.Satisfied && !alt.Satisfied {
		return false
	}
	p.alt = alt
	p.nextStep = step
	p.priority = p.cur.GPUTime - alt.GPUTime
	return true
}

// Schedule implements Algorithm 2: allocate the minimum satisfactory share
// of every SLO job, then hand remaining capacity to the job with the
// greatest marginal return, one step at a time, until slot 0 is full or no
// job benefits. Best-effort jobs join the queue with an empty base
// allocation (§4.4). The returned Decision holds each job's slot-0 worker
// count and a wake-up time at the next planned allocation change.
func (e *ElasticFlow) Schedule(now float64, active []*job.Job, g int) sched.Decision {
	// One sched.epoch span per allocation round — the plan-cache fold over
	// the active job set (plancache.go runs inside allocate).
	epoch := e.opts.Obs.Tracer().Begin(now, tracing.SpanSchedEpoch, "")
	entries, adoptions := e.allocate(now, active, g)
	// Emit slot-0 allocations and the earliest planned change.
	dec := sched.Decision{Alloc: make(map[string]int, len(entries))}
	wake := math.Inf(1)
	for i := range entries {
		p := &entries[i]
		dec.Alloc[p.j.ID] = p.cur.GPUsAt(0)
		if t := p.cur.FirstChangeSlot(); t > 0 {
			if w := now + float64(t)*e.opts.SlotSec; w < wake {
				wake = w
			}
		}
	}
	if !math.IsInf(wake, 1) {
		dec.Wake = wake
	}
	e.traceSchedule(now, g, entries, adoptions)
	used := 0
	for i := range entries {
		used += entries[i].cur.GPUsAt(0)
	}
	e.opts.Obs.Tracer().End(now, epoch,
		tracing.A("jobs", len(entries)), tracing.A("spare_rounds", adoptions),
		tracing.A("used_gpus", used), tracing.A("capacity", g))
	return dec
}

// traceSchedule publishes one allocation-round summary: how Algorithm 2
// spent the spare capacity on top of the minimum satisfactory shares.
func (e *ElasticFlow) traceSchedule(now float64, g int, entries []prioJob, adoptions int) {
	o := e.opts.Obs
	if o == nil || len(entries) == 0 {
		return
	}
	used, nBE, nLate := 0, 0, 0
	e.mu.Lock()
	winners := e.winners[:0] // "id:won" pairs, comma-separated
	for i := range entries {
		p := &entries[i]
		used += p.cur.GPUsAt(0)
		if p.bestEffort {
			nBE++
		}
		if p.late {
			nLate++
		}
		if p.won > 0 {
			if len(winners) > 0 {
				winners = append(winners, ',')
			}
			winners = append(winners, p.j.ID...)
			winners = append(winners, ':')
			winners = strconv.AppendInt(winners, int64(p.won), 10)
		}
	}
	e.winners = winners
	e.mu.Unlock()
	fields := []tracing.Attr{
		tracing.A("jobs", len(entries)),
		tracing.A("slo", len(entries)-nBE),
		tracing.A("best_effort", nBE),
		tracing.A("late", nLate),
		tracing.A("spare_rounds", adoptions),
		tracing.A("used_gpus", used),
		tracing.A("capacity", g),
	}
	if len(winners) > 0 {
		fields = append(fields, tracing.Attr{Key: "winners", Value: string(winners)})
	}
	o.Event(obs.Event{Time: now, Kind: obs.KindSchedAlloc, Fields: fields})
}

// Plans returns the full allocation plan Algorithm 2 computes for each
// active job: the per-slot worker counts from now until each job's planned
// completion, including the spare-capacity expansions. Slot t of a plan
// covers [now + t·SlotSec, now + (t+1)·SlotSec). The platform exposes this
// for observability; Schedule's decision is exactly slot 0 of these plans.
// The result outlives the instant (the platform serializes it after its lock
// is released), so the runs are copied out of the scheduler's block.
func (e *ElasticFlow) Plans(now float64, active []*job.Job, g int) map[string]plan.Allocation {
	entries, _ := e.allocate(now, active, g)
	out := make(map[string]plan.Allocation, len(entries))
	for i := range entries {
		a := entries[i].cur
		a.Levels = slices.Clone(a.Levels)
		out[entries[i].j.ID] = a
	}
	return out
}

// allocate runs Algorithm 2 and returns the final per-job entries plus the
// number of spare-GPU rounds the greedy loop adopted. The entries are the
// scheduler's reused buffer and their plans live in its block: both are valid
// until the scheduler is next asked anything.
func (e *ElasticFlow) allocate(now float64, active []*job.Job, g int) ([]prioJob, int) {
	slo, be := splitJobs(active)
	// Lines 2–4: commit each SLO job's minimum satisfactory share, in
	// deadline order, then best-effort jobs on their synthetic horizons —
	// the memoized fill pass (plancache.go). An admitted job whose deadline
	// has become unsatisfiable (accumulated rescale/migration overheads ate
	// its slack, or discretization near the deadline) races to the earliest
	// possible finish instead: its guarantee already slipped, so the
	// least-bad outcome is minimal lateness (§4.4 treats expired deadlines
	// like soft deadlines — still worth finishing, and as soon as
	// possible). The recovery plan stays ahead of best-effort work.
	recs, f := e.fillPass(now, slo, be, "", g, nil)

	e.mu.Lock()
	defer e.mu.Unlock()
	e.jobs = sized(e.jobs, len(active))
	entries := e.jobs[:0]
	for i, j := range slo {
		if r := &recs[i]; r.satisfied {
			entries = append(entries, prioJob{j: j, d: r.d, cur: r.fill})
		}
	}
	for i, j := range slo {
		if r := &recs[i]; !r.satisfied {
			entries = append(entries, prioJob{j: j, d: r.d, cur: r.earliest, late: true})
		}
	}
	for i, j := range be {
		r := &recs[len(slo)+i]
		entries = append(entries, prioJob{j: j, d: r.d, cur: r.fill, bestEffort: true})
	}

	// Lines 5–11: initial marginal returns.
	e.queue = sized(e.queue, len(active))[:0]
	q := e.queue // never outgrows the buffer: at most one element per entry
	for i := range entries {
		if p := &entries[i]; e.probe(f, p) {
			q.push(p)
		}
	}

	// Lines 12–24: greedy adoption with lazy re-evaluation. Each adoption
	// strictly increases committed slot-0 usage, bounding the loop.
	adoptions := 0
	for len(q) > 0 && f.FreeAt(0) > 0 {
		p := q.pop()
		// The probe was priced against p.cur, which has not changed since;
		// only slot 0 may have: other adoptions can have consumed the
		// capacity it assumed, and then it is no probe any more.
		if p.nextStep > f.FreeAt(0)+p.cur.GPUsAt(0) {
			continue
		}
		// Adopt the probe: slot 0 rises and the tail past the earlier finish
		// is given back.
		p.cur = f.Raise(p.cur, p.alt, p.nextStep)
		p.won++
		adoptions++
		// Compute the next probe for this job.
		if e.probe(f, p) {
			q.push(p)
		}
	}
	return entries, adoptions
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
