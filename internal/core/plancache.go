package core

import (
	"math"
	"sync/atomic"

	"github.com/elasticflow/elasticflow/internal/job"
	"github.com/elasticflow/elasticflow/internal/plan"
)

// The plan cache memoizes the deadline-ordered progressive-filling pass that
// both admission control (verdict) and allocation (allocate's
// minimum-satisfactory-share phase) start from. The pass is a fold: jobs are
// filled in a deterministic order against a Filler whose state depends only
// on the jobs already processed, so a pass whose first k jobs are unchanged
// can put the Filler back where it stood after job k (the nearest snapshot
// plus the recorded commits since) and fill only the tail.
//
// Correctness rests on three properties:
//   - Every input that can change a job's fill is folded into its
//     fingerprint (mutable planning fields plus the scaling curve's content
//     hash) or into the cache key (time, capacity, generation); scheduler
//     options are immutable after construction.
//   - Snapshots copy, and re-commits re-add, the exact committed integers,
//     and resumed passes run the same plan.Filler operations in the same
//     order as a from-scratch pass, so cached and uncached decisions are
//     byte-identical (asserted by TestPlanCacheDeterminism and the sim
//     golden test).
//   - The one asymmetry between the callers — admission leaves an
//     unsatisfiable *candidate* uncommitted while every other unsatisfiable
//     job commits its FillEarliest recovery plan — is recorded per pass
//     (skipID) and checked during prefix matching.
//
// Fingerprints make invalidation implicit: a job arrival, completion,
// progress advance, or rescale changes the sequence and misses naturally.
// The generation counter (InvalidatePlanCache) is the explicit lever for
// exogenous events — node failures and recoveries — belt and suspenders on
// top of the capacity term already in the key.

// Lifetime tallies of per-job cache outcomes across all schedulers, for
// efbench's hit-rate report. The obs counters carry the same numbers per
// scheduler instance when wired.
var (
	planCacheHits   atomic.Uint64
	planCacheMisses atomic.Uint64
)

// PlanCacheStats returns the process-wide plan-cache tallies: job fills
// reused from a cached prefix vs computed from scratch.
func PlanCacheStats() (hits, misses uint64) {
	return planCacheHits.Load(), planCacheMisses.Load()
}

// ResetPlanCacheStats zeroes the process-wide tallies (benchmark harnesses
// call it between runs).
func ResetPlanCacheStats() {
	planCacheHits.Store(0)
	planCacheMisses.Store(0)
}

// Process-wide scheduler-throughput tallies, alongside the cache tallies:
// admission decisions (Admit calls) and allocation runs (Algorithm 2
// executions, one per Schedule or Plans call). efbench divides them by wall
// time for the decisions/sec and allocations/sec columns of BENCH.json.
var (
	admitDecisions atomic.Uint64
	allocationRuns atomic.Uint64
)

// DecisionStats returns the process-wide admission-decision and
// allocation-run counts.
func DecisionStats() (admits, allocations uint64) {
	return admitDecisions.Load(), allocationRuns.Load()
}

// ResetDecisionStats zeroes the process-wide decision tallies.
func ResetDecisionStats() {
	admitDecisions.Store(0)
	allocationRuns.Store(0)
}

// fillMode is the commit discipline of one position in a fill pass.
type fillMode uint8

const (
	// fillSLO: Fill against the deadline; commit the fill when satisfied,
	// otherwise commit the FillEarliest recovery plan (unless the job is
	// the admission candidate being probed, which commits nothing).
	fillSLO fillMode = iota + 1
	// fillBE: fill the synthetic best-effort horizon and commit as-is.
	fillBE
)

// fillRec is one memoized position of a fill pass.
type fillRec struct {
	id        string
	fp        uint64
	mode      fillMode
	d         plan.Demand
	fill      plan.Allocation // Fill result (the MSS when satisfied)
	earliest  plan.Allocation // committed recovery plan; only for unsatisfied, unskipped fillSLO
	satisfied bool
}

// fillState is one memoized fill pass: the records in processing order plus
// Filler snapshots every snapStride positions — snaps[k] is the committed
// usage before position k·snapStride, so len(snaps) == len(recs)/snapStride+1.
// A snapshot is a copy of the whole usage grid, by far the largest thing a
// pass allocates; the positions in between are reached by re-committing the
// recorded plans, a few integer additions per slot.
type fillState struct {
	now    float64
	g      int
	gen    uint64
	skipID string // candidate whose unsatisfied fill was not committed ("" = none)
	recs   []fillRec
	snaps  []plan.Snapshot
}

const snapStride = 8

// seek positions f after the first p commits of the pass, exactly as the
// pass left it there: the nearest snapshot at or before p, then the commits
// recorded since (an unsatisfied candidate's empty recovery plan commits
// nothing, as it did in the pass).
func (s *fillState) seek(f *plan.Filler, p int) {
	f.Restore(s.snaps[p/snapStride])
	for i := p - p%snapStride; i < p; i++ {
		if r := &s.recs[i]; r.satisfied || r.mode == fillBE {
			f.Commit(r.fill)
		} else {
			f.Commit(r.earliest)
		}
	}
}

// fingerprintJob hashes everything that can change how a job fills at a
// fixed (now, g): identity, class, deadline and rescale-margin inputs,
// remaining work, worker bounds, and the scaling curve's content.
func fingerprintJob(j *job.Job, mode fillMode) uint64 {
	h := uint64(14695981039346656037) // FNV-1a 64-bit offset basis
	mix := func(v uint64) {
		for s := 0; s < 64; s += 8 {
			h ^= (v >> s) & 0xff
			h *= 1099511628211
		}
	}
	for i := 0; i < len(j.ID); i++ {
		h ^= uint64(j.ID[i])
		h *= 1099511628211
	}
	mix(uint64(mode)<<8 | uint64(j.Class))
	mix(math.Float64bits(j.Deadline))
	mix(math.Float64bits(j.SubmitTime))
	mix(math.Float64bits(j.TotalIters))
	mix(math.Float64bits(j.DoneIters))
	mix(math.Float64bits(j.RescaleOverheadSec))
	mix(math.Float64bits(j.MigrateOverheadSec))
	mix(uint64(j.CheckpointBytes))
	mix(uint64(j.MinGPUs))
	mix(uint64(j.MaxGPUs))
	mix(uint64(j.Rescales))
	mix(j.Curve.Fingerprint())
	return h
}

// InvalidatePlanCache drops every cached fill pass and bumps the cache
// generation. Engines call it on exogenous events the job fingerprints do
// not see — node failures and recoveries. (Job arrival/completion/advance/
// rescale need no call: they change the fingerprints and miss naturally.)
func (e *ElasticFlow) InvalidatePlanCache() {
	e.mu.Lock()
	e.gen++
	e.states[0], e.states[1] = nil, nil
	e.mu.Unlock()
}

// Generation returns the plan-cache generation counter. It only moves on
// InvalidatePlanCache calls; recovery tests assert the restore path bumped
// it so no pre-crash fill pass can serve a post-restore decision.
func (e *ElasticFlow) Generation() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.gen
}

// matchPrefix returns the number of leading positions of s that are reusable
// for a query over jobs (slo then be) with fingerprints fps and candidate
// skipCand: fingerprints must match, and for unsatisfied SLO records the
// commit-or-skip decision must be the same on both sides.
func matchPrefix(s *fillState, fps []uint64, slo, be []*job.Job, skipCand string) int {
	limit := len(s.recs)
	if len(fps) < limit {
		limit = len(fps)
	}
	for p := 0; p < limit; p++ {
		r := &s.recs[p]
		var j *job.Job
		if p < len(slo) {
			j = slo[p]
		} else {
			j = be[p-len(slo)]
		}
		if r.fp != fps[p] || r.id != j.ID {
			return p
		}
		if r.mode == fillSLO && !r.satisfied && (r.id == s.skipID) != (r.id == skipCand) {
			return p
		}
	}
	return limit
}

// fillPass runs — or resumes from the longest cached prefix — the ordered
// progressive-filling pass over slo (deadline order) then be (submission
// order) against capacity g at time now. skipCand, when non-empty, names the
// admission candidate whose unsatisfiable recovery plan must not reserve
// capacity. The pass ends early at the first position ≥ stopFrom that comes
// out unsatisfied (admission needs nothing past it; pass the job count to run
// to the end). It returns one record per position filled plus the Filler
// positioned after the last commit, ready for the greedy spare-capacity
// phase.
func (e *ElasticFlow) fillPass(now float64, slo, be []*job.Job, skipCand string, g, stopFrom int) ([]fillRec, *plan.Filler) {
	n := len(slo) + len(be)
	fps := make([]uint64, n)
	for i, j := range slo {
		fps[i] = fingerprintJob(j, fillSLO)
	}
	for i, j := range be {
		fps[len(slo)+i] = fingerprintJob(j, fillBE)
	}
	f := plan.NewFiller(g, e.opts.SlotSec, e.opts.PowerOfTwo)

	if e.opts.DisablePlanCache {
		st := &fillState{now: now, g: g, skipID: skipCand}
		e.extendFill(st, f, now, slo, be, skipCand, fps, stopFrom, false)
		e.countPlanCache(0, len(st.recs))
		return st.recs, f
	}

	e.mu.Lock()
	defer e.mu.Unlock()

	// The donor is the cached pass sharing the longest prefix; on equal
	// prefixes the longer pass, which has more to offer the next query.
	var best *fillState
	bestP := -1
	for i, s := range e.states {
		if s == nil {
			continue
		}
		// A cached pass is only valid at the exact decision time it was
		// computed for — bit equality, nearby times must miss. Decision time
		// only moves forward, so a pass from another time is dropped on
		// sight rather than kept for later: its snapshots are the bulk of the
		// scheduler's memory.
		if s.gen != e.gen || math.Float64bits(s.now) != math.Float64bits(now) {
			e.states[i] = nil
			continue
		}
		if s.g != g {
			continue
		}
		if p := matchPrefix(s, fps, slo, be, skipCand); p > bestP || p == bestP && len(s.recs) > len(best.recs) {
			best, bestP = s, p
		}
	}
	// A reusable record may already be the one that ends the pass.
	for i := stopFrom; i < bestP; i++ {
		if !best.recs[i].satisfied {
			n = i + 1
			break
		}
	}

	if bestP >= n {
		// Full hit: every position reusable; reposition the filler after
		// the n-th commit. (The cached pass may extend further — a cached
		// allocate pass serves an admission query over its SLO prefix.)
		best.seek(f, n)
		if best != e.states[0] {
			e.states[0], e.states[1] = best, e.states[0]
		}
		e.countPlanCache(n, 0)
		return best.recs[:n], f
	}

	st := &fillState{now: now, g: g, gen: e.gen, skipID: skipCand}
	// keep is the cached pass that stays beside the new one: the donor while
	// it holds records the new pass does not (a short admission probe must not
	// push out the long pass it branched from), else the most recent other.
	var keep *fillState
	for _, s := range e.states {
		if s == nil || s == best && bestP >= len(s.recs) {
			continue
		}
		if keep == nil || s == best {
			keep = s
		}
	}
	if bestP > 0 {
		// Three-index slices: extending the new pass must not clobber the
		// shared backing arrays of the donor state.
		st.recs = best.recs[:bestP:bestP]
		st.snaps = best.snaps[: bestP/snapStride+1 : bestP/snapStride+1]
		st.seek(f, bestP)
	} else {
		bestP = 0
		st.snaps = []plan.Snapshot{f.Snapshot()}
	}
	e.extendFill(st, f, now, slo, be, skipCand, fps, stopFrom, true)
	e.states[0], e.states[1] = st, keep
	e.countPlanCache(bestP, len(st.recs)-bestP)
	return st.recs, f
}

// extendFill fills the positions st does not cover yet, committing per the
// fill modes and (when snapshot is set) snapshotting every snapStride jobs,
// until the jobs run out or a position ≥ stopFrom comes out unsatisfied.
// Resumed and from-scratch passes execute identical Filler operation
// sequences.
func (e *ElasticFlow) extendFill(st *fillState, f *plan.Filler, now float64, slo, be []*job.Job, skipCand string, fps []uint64, stopFrom int, snapshot bool) {
	for i := len(st.recs); i < len(slo)+len(be); i++ {
		var r fillRec
		if i < len(slo) {
			j := slo[i]
			d := e.demand(j, now)
			a := f.Fill(d)
			r = fillRec{id: j.ID, fp: fps[i], mode: fillSLO, d: d, fill: a, satisfied: a.Satisfied}
			switch {
			case a.Satisfied:
				f.Commit(a)
			case j.ID != skipCand:
				// An already-admitted job whose guarantee slipped races
				// to its earliest finish; its recovery plan reserves
				// capacity. The admission candidate's does not.
				r.earliest = f.FillEarliest(d, e.opts.HorizonSlots)
				f.Commit(r.earliest)
			}
		} else {
			j := be[i-len(slo)]
			d := e.demandBestEffort(j)
			a := f.Fill(d)
			f.Commit(a)
			r = fillRec{id: j.ID, fp: fps[i], mode: fillBE, d: d, fill: a, satisfied: a.Satisfied}
		}
		st.recs = append(st.recs, r)
		if snapshot && len(st.recs)%snapStride == 0 {
			st.snaps = append(st.snaps, f.Snapshot())
		}
		if i >= stopFrom && !r.satisfied {
			return
		}
	}
}

// countPlanCache records per-job cache outcomes on the process tallies and
// the scheduler's obs counters.
func (e *ElasticFlow) countPlanCache(hits, misses int) {
	if hits > 0 {
		planCacheHits.Add(uint64(hits))
	}
	if misses > 0 {
		planCacheMisses.Add(uint64(misses))
	}
	e.opts.Obs.AddPlanCache(hits, misses)
}
