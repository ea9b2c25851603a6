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
//     hash) or into the cache key (time, capacity); scheduler options are
//     immutable after construction.
//   - Snapshots store, and re-commits re-add, the exact committed integers,
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
// InvalidatePlanCache is the explicit lever for exogenous events — node
// failures and recoveries — belt and suspenders on top of the capacity term
// already in the key.
//
// Where plans live. A cached pass is only valid at the exact decision time it
// was computed for — bit equality, nearby times must miss — and decision time
// only moves forward, so the first pass at a new instant drops everything
// cached (dropInstantLocked). Nothing computed at one instant is reachable at
// the next, and that is the lifetime every plan gets: the runs of filled and
// raised plans and of snapshots are carved from one fixed block of runs (the
// Arena of the scheduler's one long-lived plan.Filler) that is emptied at
// exactly that point — and by InvalidatePlanCache, the other reset — instead
// of being allocated one by one and left to the collector, which is where
// almost half of a replay's CPU used to go. What does not fit the block is an
// ordinary heap slice: the block is a bound, not a pool that grows.
// The records of a dropped pass go to the next pass that needs an array (at
// most two wait), and a new pass either grows the donor it extends to the end
// or copies its donor's prefix, so no two passes ever share a backing array. With DisablePlanCache the same filler
// runs with no arena and every pass gets fresh records.

// Lifetime tallies of per-job cache outcomes across all schedulers, for the
// benchmark's hit-ratio report. The obs counters carry the same numbers per
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

// fillState is one memoized fill pass at the scheduler's current instant: the
// records in processing order plus Filler snapshots every snapStride
// positions — snaps[k] is the committed usage before position k·snapStride, so
// len(snaps) == len(recs)/snapStride+1. A snapshot is the whole usage grid as
// runs of equal usage, by far the largest thing a pass stores (≈70 runs
// against ≈2 per plan); the positions in between are reached by re-committing
// the recorded plans, a few integer additions per slot.
type fillState struct {
	g      int
	skipID string // candidate whose unsatisfied fill was not committed ("" = none)
	recs   []fillRec
	snaps  []plan.Snapshot
}

const snapStride = 8

// blockRuns is the size of a scheduler's block: 1 MiB of 8-byte runs. Plans
// average ≈2 runs and snapshots ≈70 on live_philly, so a whole instant fits,
// counter-offer search included: stored slot by slot, the worst instant —
// 35 fill passes of a batch of refusals — asked for 2.0 M ints (16 MB), and
// 326 M of 587 M copied ints spilled to the heap in a 19 s live_philly
// window on a 2-CPU host, where runs spill none. It must not grow instead: a prototype whose block grew to hold
// an instant doubled efserver's peak RSS; every retained byte counts twice
// under GOGC=100. Past the block passes allocate as every pass used to.
const blockRuns = 1 << 17

// sized returns buf resized to n entries, contents kept. The scheduler's
// reused buffers grow with an eighth of headroom where append would double:
// they are as long as the active set and retained for good, and a shard's
// peak RSS follows them.
func sized[S ~[]E, E any](buf S, n int) S {
	if cap(buf) < n {
		grown := make(S, n, n+n/8)
		copy(grown, buf)
		return grown
	}
	return buf[:n]
}

// committed is the plan position r reserves in its pass: the fill when it is
// satisfied or best-effort, otherwise the recovery plan (empty for an
// unsatisfied candidate, which reserves nothing).
func (r *fillRec) committed() plan.Allocation {
	if r.satisfied || r.mode == fillBE {
		return r.fill
	}
	return r.earliest
}

// seek positions f after the first p commits of the pass, exactly as the
// pass left it there: the nearest snapshot at or before p, then the commits
// recorded since. A pass without snapshots (DisablePlanCache) is replayed
// from the empty grid.
func (s *fillState) seek(f *plan.Filler, p int) {
	i := 0
	if q := p / snapStride; q < len(s.snaps) {
		f.Restore(s.snaps[q])
		i = q * snapStride
	} else {
		f.Reset(s.g)
	}
	for ; i < p; i++ {
		f.Commit(s.recs[i].committed())
	}
}

// fingerprintJob hashes everything but the ID — matchPrefix compares that
// itself — that can change how a job fills at a fixed (now, g): class and fill
// mode, deadline and rescale-margin inputs, remaining work, worker bounds, and
// the scaling curve's content. Fields are mixed a word at a time; every step
// is a bijection of the running hash, so two jobs that differ in one field
// never collide. Fingerprints are never persisted.
func fingerprintJob(j *job.Job, mode fillMode) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h = (h ^ v) * 0x9e3779b97f4a7c15
		h ^= h >> 32
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

// InvalidatePlanCache drops every cached fill pass, empties the block and
// bumps the cache generation. Engines call it on exogenous events the job
// fingerprints do not see — node failures and recoveries. (Job arrival/
// completion/advance/rescale need no call: they change the fingerprints and
// miss naturally.) Like a move to another instant, it ends the life of every
// plan the scheduler has handed out internally.
func (e *ElasticFlow) InvalidatePlanCache() {
	e.mu.Lock()
	e.gen++
	e.dropInstantLocked()
	e.mu.Unlock()
}

// dropInstantLocked is the reset point of everything computed at the current
// instant: the cached passes go to the spares and the block is emptied.
func (e *ElasticFlow) dropInstantLocked() {
	for i, s := range e.states {
		if s != nil {
			e.recycleLocked(s)
			e.states[i] = nil
		}
	}
	if a := e.filler.Arena; a != nil {
		a.Reset()
	}
}

// recycleLocked takes a pass out of the cache to wait as a spare. Its records
// are cleared so that it retains no job, curve or heap-allocated plan. Cached
// and spare passes together never number more than two: a new instant moves
// both cached passes here and its first two passes pick them up again, and
// within an instant a pass either grows its donor or takes over the array of
// the pass it pushes out. (Four spares with append's 2× headroom cost
// efserver 8 MB of peak RSS per shard under live_uniform.)
func (e *ElasticFlow) recycleLocked(s *fillState) {
	clear(s.recs)
	clear(s.snaps)
	s.recs, s.snaps = s.recs[:0], s.snaps[:0]
	e.spare = append(e.spare, s)
}

// newStateLocked returns an empty pass with room for n records, a spare when
// one waits.
func (e *ElasticFlow) newStateLocked(g int, skipID string, n int) *fillState {
	s := &fillState{}
	if last := len(e.spare) - 1; last >= 0 {
		s, e.spare[last] = e.spare[last], nil
		e.spare = e.spare[:last]
	}
	s.g, s.skipID = g, skipID
	s.recs = sized(s.recs, n)[:0]
	return s
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
// capacity. The pass ends early at the first position i that comes out
// unsatisfied while stop(i) holds — an admission verdict needs nothing past an
// infeasible candidate or a victim; a nil stop runs to the end. It returns one
// record per position filled plus the scheduler's Filler positioned after the
// last commit, ready for the greedy spare-capacity phase.
//
// Both results are the scheduler's own. The filler and the record slice are
// valid until the next fillPass, which repositions the one and may recycle
// the other; the plans the records point to are valid until the scheduler is
// asked about another instant or InvalidatePlanCache is called (with
// DisablePlanCache they are heap slices and simply stay).
func (e *ElasticFlow) fillPass(now float64, slo, be []*job.Job, skipCand string, g int, stop func(int) bool) ([]fillRec, *plan.Filler) {
	e.mu.Lock()
	defer e.mu.Unlock()
	st, n, f := e.passLocked(now, slo, be, skipCand, g, stop)
	return st.recs[:n], f
}

// passLocked is fillPass under e.mu: it returns the pass itself, the number
// of its records the query covers (a cached pass may extend further — a
// cached allocate pass serves an admission query over its SLO prefix) and the
// filler, positioned after the last of them.
func (e *ElasticFlow) passLocked(now float64, slo, be []*job.Job, skipCand string, g int, stop func(int) bool) (*fillState, int, *plan.Filler) {
	total := len(slo) + len(be)
	e.fps = sized(e.fps, total)
	fps := e.fps
	for i, j := range slo {
		fps[i] = fingerprintJob(j, fillSLO)
	}
	for i, j := range be {
		fps[len(slo)+i] = fingerprintJob(j, fillBE)
	}
	f := e.filler
	f.Reset(g)

	if e.opts.DisablePlanCache {
		st := &fillState{g: g, skipID: skipCand}
		e.extendFill(st, f, now, slo, be, skipCand, fps, stop, false)
		e.countPlanCache(0, len(st.recs))
		return st, len(st.recs), f
	}

	// A cached pass is only valid at the exact decision time it was computed
	// for — bit equality, nearby times must miss. Decision time only moves
	// forward, so at a new instant every pass is dropped on sight rather than
	// kept for later, and the block they were computed in starts over.
	if bits := math.Float64bits(now); bits != e.at {
		e.dropInstantLocked()
		e.at = bits
	}
	if f.Arena == nil {
		f.Arena = plan.NewArena(blockRuns)
	}

	// The donor is the cached pass sharing the longest prefix; on equal
	// prefixes the longer pass, which has more to offer the next query.
	var best *fillState
	bestP := -1
	for _, s := range e.states {
		if s == nil || s.g != g {
			continue
		}
		if p := matchPrefix(s, fps, slo, be, skipCand); p > bestP || p == bestP && len(s.recs) > len(best.recs) {
			best, bestP = s, p
		}
	}
	// A reusable record may already be the one that ends the pass.
	n := total
	for i := 0; stop != nil && i < bestP; i++ {
		if !best.recs[i].satisfied && stop(i) {
			n = i + 1
			break
		}
	}

	if bestP >= n {
		// Full hit: every position reusable; reposition the filler after
		// the n-th commit.
		best.seek(f, n)
		if best != e.states[0] {
			e.states[0], e.states[1] = best, e.states[0]
		}
		e.countPlanCache(n, 0)
		return best, n, f
	}

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
	st := best
	if best != nil && bestP == len(best.recs) {
		// The new pass extends its donor to the end: it is the donor, grown.
		st.skipID = skipCand
		st.recs = sized(st.recs, total)[:bestP]
	} else {
		// The pass leaving the cache — never the donor, which stays as keep —
		// hands its record array to the new one, which starts from a copy of
		// the donor's prefix: no two passes share a backing array.
		for _, s := range e.states {
			if s != nil && s != keep {
				e.recycleLocked(s)
			}
		}
		st = e.newStateLocked(g, skipCand, total)
		if bestP > 0 {
			st.recs = append(st.recs, best.recs[:bestP]...)
			st.snaps = append(st.snaps, best.snaps[:bestP/snapStride+1]...)
		} else {
			bestP = 0
			st.snaps = append(st.snaps, f.Snapshot())
		}
	}
	st.seek(f, bestP)
	e.extendFill(st, f, now, slo, be, skipCand, fps, stop, true)
	e.states[0], e.states[1] = st, keep
	e.countPlanCache(bestP, len(st.recs)-bestP)
	return st, len(st.recs), f
}

// extendFill fills the positions st does not cover yet, committing per the
// fill modes and (when snapshot is set) snapshotting every snapStride jobs,
// until the jobs run out or an unsatisfied position ends the pass (stop).
// Resumed and from-scratch passes execute identical Filler operation
// sequences.
func (e *ElasticFlow) extendFill(st *fillState, f *plan.Filler, now float64, slo, be []*job.Job, skipCand string, fps []uint64, stop func(int) bool, snapshot bool) {
	for i := len(st.recs); i < len(slo)+len(be); i++ {
		var r fillRec
		if i < len(slo) {
			j := slo[i]
			d := e.demand(j, now)
			a := f.FillCommit(d) // a satisfied fill is committed as it is walked
			r = fillRec{id: j.ID, fp: fps[i], mode: fillSLO, d: d, fill: a, satisfied: a.Satisfied}
			if !a.Satisfied && j.ID != skipCand {
				// An already-admitted job whose guarantee slipped races
				// to its earliest finish; its recovery plan reserves
				// capacity. The admission candidate's does not.
				r.earliest = f.FillEarliest(d, e.opts.HorizonSlots)
				f.Commit(r.earliest)
			}
		} else {
			j := be[i-len(slo)]
			d := e.demandBestEffort(j)
			a := f.FillCommit(d)
			if !a.Satisfied {
				f.Commit(a)
			}
			r = fillRec{id: j.ID, fp: fps[i], mode: fillBE, d: d, fill: a, satisfied: a.Satisfied}
		}
		st.recs = append(st.recs, r)
		if snapshot && len(st.recs)%snapStride == 0 {
			st.snaps = append(st.snaps, f.Snapshot())
		}
		if !r.satisfied && stop != nil && stop(i) {
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
