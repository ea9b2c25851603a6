// Package plan implements the slot-indexed allocation machinery behind
// ElasticFlow's admission control and resource allocation (§4.1–§4.2).
//
// Time is discretized into slots of fixed duration starting at the current
// scheduling event. A Filler tracks, per slot, how many GPUs are already
// promised to higher-priority jobs, and computes for one job at a time the
// progressive filling of Algorithm 1: raise a per-slot allocation level j
// until the job's remaining iterations complete before its deadline, where
// the job receives min(j, free capacity) in every slot.
package plan

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"github.com/elasticflow/elasticflow/internal/throughput"
)

// Demand is the input of progressive filling for one job.
type Demand struct {
	// Curve maps worker counts to iterations/sec under best placement.
	Curve throughput.Curve
	// Remaining is the number of iterations still to run (M_i minus
	// progress so far).
	Remaining float64
	// DeadlineSlot bounds the slots the job may use: allocations are
	// placed in [0, DeadlineSlot).
	DeadlineSlot int
	// MinGPUs is the smallest feasible worker count (memory floor); any
	// smaller allocation is useless and becomes zero.
	MinGPUs int
	// MaxGPUs caps the worker count (scaling ceiling). Zero means
	// unbounded.
	MaxGPUs int
}

// Run is a stretch of consecutive slots planned at one level: the slots from
// the previous run's End (0 for the first run) up to End, exclusive. It is
// 8 bytes, the size of one slot's level as an int.
type Run struct {
	Level, End int32
}

// runsEnd returns the number of slots runs cover: the end of the last one.
func runsEnd(runs []Run) int {
	if n := len(runs); n > 0 {
		return int(runs[n-1].End)
	}
	return 0
}

// appendRun appends level x through slot end to runs, extending the last run
// when it holds the same level, so that runs built in slot order stay maximal.
func appendRun(runs []Run, x, end int) []Run {
	if n := len(runs); n > 0 && int(runs[n-1].Level) == x {
		runs[n-1].End = int32(end)
		return runs
	}
	return append(runs, Run{Level: int32(x), End: int32(end)})
}

// Allocation is the result of filling one job: its planned per-slot worker
// counts and derived accounting.
type Allocation struct {
	// Levels is the plan as runs of equal level: contiguous from slot 0,
	// each run at least one slot long, zero levels included, and maximal (no
	// two neighbours hold the same level). Slots after the finish slot are
	// not in the plan (GPUsAt reads them as zero); the finish slot itself
	// holds its full level (the planner reserves the whole slot; the
	// simulator frees GPUs at the actual completion instant).
	Levels []Run
	// Satisfied reports whether the plan completes Remaining iterations
	// by DeadlineSlot. Unsatisfied allocations are best-effort maximal
	// plans (used to keep running jobs alive when replanning detects
	// infeasibility).
	Satisfied bool
	// FinishSlot is the slot in which the job completes (Slots() when not
	// satisfied).
	FinishSlot int
	// FinishFrac is the fraction of FinishSlot elapsed at completion.
	FinishFrac float64
	// GPUTime is the total GPU·seconds the plan consumes, counting the
	// finish slot fractionally — the quantity Algorithm 2 minimizes.
	GPUTime float64
}

// Slots returns the number of slots the plan covers.
func (a Allocation) Slots() int { return runsEnd(a.Levels) }

// GPUsAt returns the planned worker count in slot t (0 beyond the plan).
func (a Allocation) GPUsAt(t int) int {
	if t < 0 {
		return 0
	}
	for _, r := range a.Levels {
		if t < int(r.End) {
			return int(r.Level)
		}
	}
	return 0
}

// FirstChangeSlot returns the smallest t ≥ 1 at which the planned level
// differs from slot 0, or 0 if the plan never changes. The simulator uses it
// to wake up at planned reallocation boundaries. Runs are maximal, so it is
// where the second run starts.
func (a Allocation) FirstChangeSlot() int {
	if len(a.Levels) < 2 {
		return 0
	}
	return int(a.Levels[0].End)
}

// FinishTime returns the completion time in seconds from the plan origin.
func (a Allocation) FinishTime(slotDur float64) float64 {
	if !a.Satisfied && a.FinishSlot >= a.Slots() {
		return math.Inf(1)
	}
	return (float64(a.FinishSlot) + a.FinishFrac) * slotDur
}

// PerSlot returns the plan slot by slot: element t is the worker count of
// slot t. It is nil exactly when Levels is.
func (a Allocation) PerSlot() []int {
	if a.Levels == nil {
		return nil
	}
	out := make([]int, 0, a.Slots())
	for _, r := range a.Levels {
		for len(out) < int(r.End) {
			out = append(out, int(r.Level))
		}
	}
	return out
}

// Arena is a fixed block of run storage that a Filler carves plans and
// snapshots from instead of allocating each on the heap. Nothing is freed
// piecemeal: Reset gives the whole block back at once, so everything carved
// since the previous Reset must be unreachable by then. The block never
// grows — a request that does not fit is served by make — which bounds what
// the arena's owner retains no matter how much is planned between two resets.
type Arena struct {
	buf []Run
	off int
}

// NewArena creates an arena of n runs.
func NewArena(n int) *Arena { return &Arena{buf: make([]Run, n)} }

// Cap returns the size of the block in runs.
func (a *Arena) Cap() int { return len(a.buf) }

// Reset empties the arena: storage handed out so far will be handed out again.
func (a *Arena) Reset() { a.off = 0 }

// Filler tracks committed per-slot GPU usage and fills one demand at a time.
// The zero value is unusable; construct with NewFiller. A Filler owns its
// usage grid and walk buffer and keeps their capacity across Reset, so a
// long-lived one stops allocating them once it has seen its longest horizon.
type Filler struct {
	// G is the cluster capacity in GPUs.
	G int
	// SlotDur is the slot length in seconds.
	SlotDur float64
	// PowerOfTwo restricts allocations to powers of two, matching buddy
	// placement (§4.3). When false, the filler runs Algorithm 1 exactly
	// as printed, with unit increments.
	PowerOfTwo bool
	// Arena, when non-nil, is where the runs of filled and raised plans and
	// of snapshots are stored: they are valid until its next Reset and must
	// not be appended to. With a nil Arena (or a full one) they are ordinary
	// heap slices.
	Arena *Arena

	used    []int // committed usage per slot
	scratch []Run // the runs walk, Raise and Snapshot build before copying them out
}

// NewFiller creates a filler for a cluster of g GPUs with the given slot
// duration. powerOfTwo selects the buddy-compatible allocation discipline.
func NewFiller(g int, slotDur float64, powerOfTwo bool) *Filler {
	return &Filler{G: g, SlotDur: slotDur, PowerOfTwo: powerOfTwo}
}

// UsedAt returns the committed usage in slot t.
func (f *Filler) UsedAt(t int) int {
	if t < 0 || t >= len(f.used) {
		return 0
	}
	return f.used[t]
}

// FreeAt returns the free capacity in slot t.
func (f *Filler) FreeAt(t int) int { return f.G - f.UsedAt(t) }

// Reset empties the usage grid and sets the capacity to g GPUs, as a new
// filler would start, keeping the grid's and the walk buffer's storage.
func (f *Filler) Reset(g int) {
	f.G = g
	f.used = f.used[:0]
}

// clone copies src into the arena when it fits and onto the heap otherwise.
// The result is never nil and has no spare capacity.
func (f *Filler) clone(src []Run) []Run {
	if a := f.Arena; a != nil && len(src) <= len(a.buf)-a.off {
		dst := a.buf[a.off : a.off+len(src) : a.off+len(src)]
		a.off += len(src)
		copy(dst, src)
		return dst
	}
	// make+copy of plain locals compiles to one allocation that is not
	// zeroed first.
	dst := make([]Run, len(src))
	copy(dst, src)
	return dst
}

// ensure extends the usage grid to n slots. Plans are committed in deadline
// order, each a little longer than the last, so capacity doubles rather than
// following every plan's length.
func (f *Filler) ensure(n int) {
	old := len(f.used)
	if old >= n {
		return
	}
	if cap(f.used) < n {
		grown := make([]int, old, max(n, 2*cap(f.used)))
		copy(grown, f.used)
		f.used = grown
	}
	f.used = f.used[:n]
	clear(f.used[old:]) // capacity left behind by Restore is not zero
}

// Snapshot is an immutable copy of a Filler's committed usage, stored as runs
// of equal usage: cheap to take and restore relative to re-running
// progressive filling. The scheduler's plan cache keys incremental replans on
// snapshots taken between per-job commits, so probing a candidate does not
// re-fill the already committed prefix. A snapshot taken by a filler with an
// Arena lives there.
type Snapshot struct {
	used []Run
}

// Slots returns the number of slots the snapshot covers.
func (s Snapshot) Slots() int { return runsEnd(s.used) }

// Snapshot captures the current committed usage.
func (f *Filler) Snapshot() Snapshot {
	f.scratch = runsOf(f.scratch[:0], f.used)
	return Snapshot{used: f.clone(f.scratch)}
}

// runsOf appends the maximal runs of equal value in levels to runs.
func runsOf(runs []Run, levels []int) []Run {
	for t := 0; t < len(levels); {
		x, end := levels[t], t+1
		for end < len(levels) && levels[end] == x {
			end++
		}
		runs = append(runs, Run{Level: int32(x), End: int32(end)})
		t = end
	}
	return runs
}

// Restore resets the committed usage to a previously taken snapshot. The
// snapshot stays valid and may be restored any number of times, into any
// filler with the same capacity and slot duration.
func (f *Filler) Restore(s Snapshot) {
	n := s.Slots()
	if cap(f.used) < n {
		f.used = make([]int, n, max(n, 2*cap(f.used)))
	}
	f.used = f.used[:n]
	t := 0
	for _, r := range s.used {
		seg := f.used[t:r.End]
		if r.Level == 0 {
			clear(seg)
		} else {
			for i := range seg {
				seg[i] = int(r.Level)
			}
		}
		t = int(r.End)
	}
}

// Commit reserves the allocation's levels in the filler's usage grid. Each
// run is added over its slots and checked against the capacity once, by the
// highest usage it leaves.
func (f *Filler) Commit(a Allocation) {
	f.ensure(a.Slots())
	t := 0
	for _, r := range a.Levels {
		x, seg := int(r.Level), f.used[t:r.End]
		t = int(r.End)
		if x == 0 {
			continue
		}
		top := 0
		for i := range seg {
			seg[i] += x
			top = max(top, seg[i])
		}
		if top > f.G {
			// Programming error: callers must only commit plans produced
			// against the current usage.
			i := slices.IndexFunc(seg, func(u int) bool { return u > f.G })
			panic(fmt.Sprintf("plan: slot %d overcommitted: %d > %d", t-len(seg)+i, seg[i], f.G))
		}
	}
}

// Uncommit releases a previously committed allocation.
func (f *Filler) Uncommit(a Allocation) {
	t := 0
	for _, r := range a.Levels {
		f.release(t, int(r.End), int(r.Level))
		t = int(r.End)
	}
}

// release gives back x GPUs in every slot of [t, end); zero is a no-op. The
// slots are subtracted from and checked once, by the lowest usage left; the
// panic names the first slot that held less than x or lies past the grid.
func (f *Filler) release(t, end, x int) {
	if x == 0 || t >= end {
		return
	}
	n := len(f.used)
	seg := f.used[min(t, n):min(end, n)]
	low := 0
	for i := range seg {
		seg[i] -= x
		low = min(low, seg[i])
	}
	if low < 0 || end > n {
		bad := max(t, n)
		if i := slices.IndexFunc(seg, func(u int) bool { return u < 0 }); i >= 0 {
			bad = t + i
		}
		panic(fmt.Sprintf("plan: slot %d under-release", bad))
	}
}

// clampLevel maps a raw candidate worker count to a feasible one: capped by
// MaxGPUs, rounded down to a power of two when required, and floored to zero
// when below MinGPUs.
func (f *Filler) clampLevel(x int, d *Demand) int {
	if d.MaxGPUs > 0 && x > d.MaxGPUs {
		x = d.MaxGPUs
	}
	if f.PowerOfTwo && x > 0 {
		x = 1 << (bits.Len(uint(x)) - 1)
	}
	if x < max(d.MinGPUs, 1) {
		return 0
	}
	return x
}

// Fill runs progressive filling (Algorithm 1's inner procedure) for the
// demand against the current committed usage: it finds the smallest level j
// such that allocating min(j, free(t)) in every slot t ∈ [0, DeadlineSlot)
// completes the demand in time. The allocation is returned uncommitted.
//
// When no level satisfies the demand, Fill returns the maximal-progress
// allocation with Satisfied=false.
func (f *Filler) Fill(d Demand) Allocation {
	return f.fill(&d, 0, -1)
}

// FillCommit is Fill followed, when the fill is satisfied, by Commit of it,
// in one walk: the level walk that succeeds adds its grants to the usage grid
// as it goes, and a walk that comes out short gives back what it added. The
// grid ends exactly as Fill and Commit would leave it when the result is
// satisfied, and as it was when it is not.
func (f *Filler) FillCommit(d Demand) Allocation {
	return f.own(f.search(&d, 0, -1, true))
}

// FillFixedSlot0 runs progressive filling with slot 0 pinned to exactly
// slot0 workers (Algorithm 2's marginal-return probe: x_i(0) ← a_i(0)+1,
// then ProgressiveFilling(i, 1)). slot0 may be 0.
func (f *Filler) FillFixedSlot0(d Demand, slot0 int) Allocation {
	return f.fill(&d, 1, slot0)
}

// FillEarliest finds an allocation that completes the demand as soon as
// possible when its own deadline horizon no longer suffices: the horizon is
// doubled until progressive filling succeeds (so the plan finishes within
// 2× the minimal achievable time at the minimal level), capped at maxSlots.
// This is the recovery plan for an admitted job whose guarantee slipped —
// it must race to the finish, not idle at its memory floor.
// Only the plan returned is copied out of the walk buffer; a horizon that
// falls short is discarded where it was walked, and one that even the top
// level's throughput in every slot cannot fill — the search's first bound,
// taken over every level it visits — is not walked at all.
func (f *Filler) FillEarliest(d Demand, maxSlots int) Allocation {
	top := 0.0
	for j := 1; j <= f.maxLevel(&d); j = f.nextLevel(j) {
		top = max(top, d.Curve.At(j))
	}
	for h := max(d.DeadlineSlot, 1); h < maxSlots; h *= 2 {
		if reach(0, h, top*f.SlotDur) < d.Remaining-1e-9 {
			continue
		}
		d.DeadlineSlot = h
		if a, buffered := f.search(&d, 0, -1, false); a.Satisfied {
			return f.own(a, buffered)
		}
	}
	d.DeadlineSlot = maxSlots
	return f.fill(&d, 0, -1)
}

// finishFrac is the fraction of a slot adding delta iterations that the
// demand still needs after progress iterations.
func finishFrac(remaining, progress, delta float64) float64 {
	if delta <= 0 {
		return 0
	}
	frac := (remaining - progress) / delta
	if frac < 0 {
		return 0
	}
	if frac > 1 {
		return 1
	}
	return frac
}

// RaiseSlot0 prices cur with its slot-0 worker count raised to slot0 and the
// remaining slots kept as they are, re-trimmed at the new (earlier)
// completion point. This is the marginal-return probe Algorithm 2 needs for
// loose-deadline jobs: re-filling the tail minimally (FillFixedSlot0) would
// slow the tail down and mask the benefit of the extra GPU, leaving spare
// capacity unused; keeping the tail makes the probe a strict improvement
// whenever the raised slot 0 adds throughput. free0 is the slot-0 capacity
// open to the job — the filler's free capacity there plus cur's own share
// when cur is committed; nothing else of the usage grid is read. ok is false
// when slot0 workers do not fit or are not a feasible worker count for the
// demand.
//
// The result carries the raised plan's accounting — finish point, GPU time,
// Satisfied — with Levels left nil: Algorithm 2 prices a raise per job per
// round and adopts few of them, so only Raise builds the plan.
//
// The walk goes run by run: the throughput and GPU time of a level are looked
// up once per run, and the inner loop over the run keeps one addition per
// slot in slot order.
func (f *Filler) RaiseSlot0(d Demand, cur Allocation, slot0, free0 int) (a Allocation, ok bool) {
	if slot0 > free0 || f.clampLevel(slot0, &d) != slot0 {
		return Allocation{}, false
	}
	runs := cur.Levels
	a.FinishSlot = max(cur.Slots(), 1)
	progress, gpuTime := 0.0, 0.0
	lv, t, end := slot0, 0, 1 // the raised slot 0 is its own run
	for i := 0; ; {
		if lv != 0 {
			delta := d.Curve.At(lv) * f.SlotDur
			slotTime := float64(lv) * f.SlotDur
			for ; t < end; t++ {
				if progress+delta >= d.Remaining-1e-9 {
					a.Satisfied = true
					a.FinishSlot = t
					a.FinishFrac = finishFrac(d.Remaining, progress, delta)
					a.GPUTime = gpuTime + float64(lv)*a.FinishFrac*f.SlotDur
					return a, true
				}
				progress += delta
				gpuTime += slotTime
			}
		}
		t = end
		for i < len(runs) && int(runs[i].End) <= t {
			i++ // the run holding slot 0 may end there
		}
		if i == len(runs) {
			break
		}
		lv, end = int(runs[i].Level), int(runs[i].End)
	}
	a.Satisfied = d.Remaining <= 1e-9
	a.GPUTime = gpuTime
	return a, true
}

// Raise adopts what RaiseSlot0 priced: cur, which must be committed in f,
// becomes cur with slot 0 at slot0, trimmed at the raised plan's completion
// point, and the usage grid follows. It does what Uncommit(cur), building the
// raised plan and Commit of it would, by what actually changes: slot 0 moves
// by slot0 − cur's share and the slots past the new finish slot are given
// back; the slots in between would be released and re-reserved as they were.
// It panics as those would on an overcommitted slot 0 and on an under-release
// in slot 0 or the tail. cur is left as it is — it may be a cached fill —
// and the raised plan is a new copy of a few runs.
func (f *Filler) Raise(cur, priced Allocation, slot0 int) Allocation {
	n := cur.Slots()
	if n == 0 {
		f.ensure(1) // an empty plan gains its first slot
	}
	keep := min(priced.FinishSlot+1, max(n, 1))
	cur0 := cur.GPUsAt(0)
	if len(f.used) == 0 || f.used[0] < cur0 {
		panic("plan: slot 0 under-release")
	}
	runs := append(f.scratch[:0], Run{Level: int32(slot0), End: 1})
	t := 0
	for _, r := range cur.Levels {
		start, x := max(t, 1), int(r.Level)
		t = int(r.End)
		if end := min(t, keep); start < end {
			runs = appendRun(runs, x, end)
		}
		f.release(max(start, keep), t, x)
	}
	f.used[0] += slot0 - cur0
	if f.used[0] > f.G {
		panic(fmt.Sprintf("plan: slot 0 overcommitted: %d > %d", f.used[0], f.G))
	}
	f.scratch = runs
	priced.Levels = f.clone(runs)
	return priced
}

// pruneGuard inflates the bound by which a level walk gives up: a sum of up
// to 2^20 per-slot additions can exceed its exact value by a relative 2^20 ×
// 2^-53 ≈ 1e-10, and a walk must never give up on a level it would accept.
const pruneGuard = 1e-6

// reach bounds what a walk with progress so far can still reach in left more
// slots of at most top each, inflated by pruneGuard.
func reach(progress float64, left int, top float64) float64 {
	return (progress + float64(left)*top) * (1 + pruneGuard)
}

// pause returns the slot, at most lim, at which a walk in slot t whose bound
// there is r, adding delta per slot, next takes its bound: in exact
// arithmetic the bound falls by (top − delta)·(1+pruneGuard) a slot, so it
// cannot fall below floor before. Where it is taken decides only how early a
// short level stops, never whether it does.
func pause(t, lim int, r, floor, top, delta float64) int {
	if k := (r - floor) / ((top - delta) * (1 + pruneGuard)); k < float64(lim-t-1) {
		return t + 1 + int(k)
	}
	return lim
}

// fill is the common implementation of the fills that do not commit, its
// plan copied out of the walk buffer.
func (f *Filler) fill(d *Demand, startSlot, fixed0 int) Allocation {
	return f.own(f.search(d, startSlot, fixed0, false))
}

// own returns a with its runs copied out of the walk buffer when buffered
// says they are still there.
func (f *Filler) own(a Allocation, buffered bool) Allocation {
	if buffered {
		a.Levels = f.clone(a.Levels)
	}
	return a
}

// maxLevel returns the highest level the search tries: the capacity, capped
// by MaxGPUs.
func (f *Filler) maxLevel(d *Demand) int {
	if d.MaxGPUs > 0 && d.MaxGPUs < f.G {
		return d.MaxGPUs
	}
	return f.G
}

// search runs the level search of the fills. startSlot is the first slot whose
// level the candidate j controls; slots before it are pinned to fixed0 (only
// slot 0 can be pinned). fixed0 < 0 means no pin. With commit set (never with
// a pin), a satisfied result is left committed in the usage grid and an
// unsatisfied one leaves the grid as it was. buffered reports that the
// result's Levels alias the walk buffer, valid until the buffer's next use.
//
// Levels are tried in ascending order with one early-exiting walk per level,
// so a job satisfiable at a low level costs O(finish slot) rather than
// O(horizon), and a level that cannot be satisfied gives up as soon as the
// progress so far plus the slots left at the best throughput seen so far fall
// short of the demand — before its first slot when even the whole horizon
// does. Level j grants every unpinned slot a level visited at or before j
// (clampLevel only caps, floors to a power of two or zeroes), so the running
// maximum of Curve.At over visited levels bounds every such slot's progress,
// monotone curve or not; a pinned slot 0, which may hold more, is already in
// the progress when the bound is first taken. The highest level is always
// walked in full: it doubles as the maximal-progress fallback when no level
// satisfies the demand.
func (f *Filler) search(d *Demand, startSlot, fixed0 int, commit bool) (a Allocation, buffered bool) {
	horizon := max(d.DeadlineSlot, 0)
	maxJ := f.maxLevel(d)
	// No upfront ensure: FreeAt treats slots beyond the usage grid as fully
	// free, and committing grows the grid to the (finish-trimmed) plan.
	switch {
	case maxJ < 1:
		// No level to try: the empty plan over the whole horizon.
		f.scratch = f.scratch[:0]
		if horizon > 0 {
			f.scratch = append(f.scratch, Run{End: int32(horizon)})
		}
		a := Allocation{Levels: f.scratch, FinishSlot: horizon}
		if d.Remaining <= 1e-9 {
			a.Satisfied, a.FinishSlot = true, 0
			if commit {
				f.Commit(a)
			}
		}
		return a, true
	case d.Remaining <= 1e-9:
		// Nothing to run: an empty, satisfied plan.
		return Allocation{Satisfied: true}, false
	}
	best := 0.0 // highest Curve.At over the levels visited so far
	for j := 1; ; j = f.nextLevel(j) {
		best = max(best, d.Curve.At(j))
		top, floor, last := best*f.SlotDur, d.Remaining-1e-9, f.nextLevel(j) > maxJ
		if last {
			floor = math.Inf(-1)
		} else if fixed0 < 0 && reach(0, horizon, top) < floor {
			continue // the walk would give up before its first slot
		}
		if a := f.walk(d, j, startSlot, fixed0, horizon, top, floor, commit); a.Satisfied || last {
			return a, true
		}
	}
}

// nextLevel advances the candidate level per the allocation discipline.
func (f *Filler) nextLevel(j int) int {
	if f.PowerOfTwo {
		return j * 2
	}
	return j + 1
}

// levelAt returns the worker count level j grants in slot t under the
// pinning rules and current usage.
func (f *Filler) levelAt(d *Demand, j, startSlot, fixed0, t int) int {
	x := j
	if t < startSlot {
		if t == 0 && fixed0 >= 0 {
			x = fixed0
		} else {
			x = 0
		}
	}
	if free := f.FreeAt(t); x > free {
		x = free
	}
	return f.clampLevel(x, d)
}

// grant returns the worker count x that level j grants an unpinned slot with
// committed usage u, and an interval [lo, hi] of usages, holding u, that all
// grant x. x(u) = clampLevel(min(j, G−u)) is non-increasing in u — capping,
// flooring to a power of two and zeroing below MinGPUs are all monotone — so
// the usages granting x are one interval; it is derived from clampLevel's
// rules over the free capacity G−u, and cut to non-negative usages.
func (f *Filler) grant(d *Demand, j, u int) (x, lo, hi int) {
	x = f.clampLevel(min(j, f.G-u), d)
	most := j // the most any slot can get: min(j, free) capped by MaxGPUs
	if d.MaxGPUs > 0 && most > d.MaxGPUs {
		most = d.MaxGPUs
	}
	if x == 0 {
		// Zero exactly while min(most, free) is below a, the smallest
		// worker count clampLevel keeps.
		a := max(d.MinGPUs, 1)
		if f.PowerOfTwo {
			a = 1 << bits.Len(uint(a-1))
		}
		if a > most {
			return 0, 0, math.MaxInt // no free capacity grants a worker
		}
		return 0, max(f.G-a+1, 0), math.MaxInt
	}
	// min(most, free) in [x, top] grants x; free ≥ x keeps it there when the
	// cap does, otherwise free must stay within [x, top] itself.
	top := x
	if f.PowerOfTwo {
		top = 2*x - 1
	}
	if most <= top {
		return x, 0, f.G - x
	}
	return x, max(f.G-top, 0), f.G - x
}

// walk lays level j over the horizon until the demand is met, in a single
// pass that produces the whole allocation: its runs, written to the walk
// buffer, cover the slots up to and including the finish slot, or the whole
// horizon when the demand cannot complete by it at this level.
//
// The walk goes by stretches — maximal runs of slots that get the same
// granted level. The pinned slot 0 is its own stretch; past the pin, grant
// gives the level and the usage interval that keeps it once per stretch. The
// unsigned compare that ends a stretch sits in the progress loop, behind its
// dependent float addition, so each slot is read once and no slot past the
// finish is read at all. Slots past the usage grid have usage 0 and grant one
// level, so the free tail is walked without reading the grid. Each stretch is
// one run of the plan, merged into its predecessor when the two grant the
// same level. Progress and GPU time each accumulate with one addition per
// slot in slot order — stretches only hoist the (identical) level and
// throughput computation, keeping results bit-identical to a slot-by-slot
// walk; a closed form per stretch rounds differently and moves finish slots.
//
// A level that falls short stops early. At the start of every stretch the
// walk takes its bound — progress so far plus the slots left at top each, top
// bounding every unpinned slot's progress (search's argument) — and gives up,
// unsatisfied with the runs walked so far, when it is below floor. A stretch
// is cut where the bound could first fall below floor (pause) and resumed as
// a new one, merged into the same run, so the progress loop carries no test
// of its own for it. A floor of −∞ walks the whole horizon.
//
// With commit set, each stretch's grant is added to the usage grid as soon
// as the stretch is walked, in a loop of its own (an integer store in the
// progress loop slows its float chain), and the free tail's when the walk
// finishes in it, growing the grid to the finish slot; a walk that comes out
// short gives back what it added. grant's interval holds the usage u of every
// slot of a stretch to u + x ≤ G, which a committing walk asserts once per
// stretch, as Commit would check it.
func (f *Filler) walk(d *Demand, j, startSlot, fixed0, horizon int, top, floor float64, commit bool) Allocation {
	runs := f.scratch[:0]
	need := d.Remaining - 1e-9
	progress, gpuTime := 0.0, 0.0
	t := 0
	if startSlot > 0 && horizon > 0 {
		x := f.levelAt(d, j, startSlot, fixed0, 0)
		if x != 0 {
			delta := d.Curve.At(x) * f.SlotDur
			if progress+delta >= need {
				return f.finished(d, runs, x, 0, 0, delta, progress, gpuTime, false)
			}
			progress += delta
			gpuTime += float64(x) * f.SlotDur
		}
		runs = appendRun(runs, x, 1)
		t = 1
	}
	used := f.used[:min(len(f.used), horizon)]
	for t < len(used) {
		r := reach(progress, horizon-t, top)
		if r < floor {
			return f.short(runs, gpuTime, horizon, commit)
		}
		x, lo, hi := f.grant(d, j, used[t])
		span := uint(hi - lo)
		delta := d.Curve.At(x) * f.SlotDur
		end := pause(t, len(used), r, floor, top, delta)
		if x == 0 {
			for t++; t < end && uint(used[t]-lo) <= span; t++ {
			}
			runs = appendRun(runs, 0, t)
			continue
		}
		if commit && hi > f.G-x {
			panic(fmt.Sprintf("plan: slot %d overcommitted: %d > %d", t, hi+x, f.G))
		}
		slotTime := float64(x) * f.SlotDur
		from, seg := t, used[:end]
		for {
			if progress+delta >= need {
				return f.finished(d, runs, x, from, t, delta, progress, gpuTime, commit)
			}
			progress += delta
			gpuTime += slotTime
			if t++; t == len(seg) || uint(seg[t]-lo) > span {
				break
			}
		}
		if commit {
			f.add(from, t, x)
		}
		runs = appendRun(runs, x, t)
	}
	if t < horizon {
		// The free tail past the grid: usage 0 in every slot.
		x := f.clampLevel(min(j, f.G), d)
		delta := d.Curve.At(x) * f.SlotDur
		slotTime := float64(x) * f.SlotDur
		from := t
		for t < horizon && x != 0 {
			r := reach(progress, horizon-t, top)
			if r < floor {
				return f.short(runs, gpuTime, horizon, commit)
			}
			for end := pause(t, horizon, r, floor, top, delta); t < end; t++ {
				if progress+delta >= need {
					return f.finished(d, runs, x, from, t, delta, progress, gpuTime, commit)
				}
				progress += delta
				gpuTime += slotTime
			}
		}
		runs = appendRun(runs, x, horizon)
	}
	return f.short(runs, gpuTime, horizon, commit)
}

// finished is walk's result when the demand completes in slot t at x
// workers, progress and gpuTime having accumulated over the slots before it.
// A committing walk adds x to the slots of the stretch it finishes in, from
// slot from through t, growing the grid when they lie past it. (delta comes
// first: in this order the compiler keeps the sum of walk's progress loop in
// one register instead of moving it there each slot.)
func (f *Filler) finished(d *Demand, runs []Run, x, from, t int, delta, progress, gpuTime float64, commit bool) Allocation {
	runs = appendRun(runs, x, t+1)
	f.scratch = runs
	if commit {
		f.ensure(t + 1)
		f.add(from, t+1, x)
	}
	frac := finishFrac(d.Remaining, progress, delta)
	gpuTime += float64(x) * frac * f.SlotDur
	return Allocation{Levels: runs, Satisfied: true, FinishSlot: t, FinishFrac: frac, GPUTime: gpuTime}
}

// add adds x to the usage of every slot of [from, end).
func (f *Filler) add(from, end, x int) {
	seg := f.used[from:end]
	for i := range seg {
		seg[i] += x
	}
}

// short is walk's result when level j falls short of the demand: the runs
// walked, unsatisfied. A committing walk gives back what it added — every run
// inside the grid; the free tail was never added.
func (f *Filler) short(runs []Run, gpuTime float64, horizon int, commit bool) Allocation {
	f.scratch = runs
	if commit {
		t := 0
		for _, r := range runs {
			f.release(t, min(int(r.End), len(f.used)), int(r.Level))
			t = int(r.End)
		}
	}
	return Allocation{Levels: runs, FinishSlot: horizon, GPUTime: gpuTime}
}

// TotalCommitted returns the committed GPU·slots across all slots, a debug
// aid for tests.
func (f *Filler) TotalCommitted() int {
	s := 0
	for _, u := range f.used {
		s += u
	}
	return s
}
