package core

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/elasticflow/elasticflow/internal/job"
	"github.com/elasticflow/elasticflow/internal/throughput"
)

// fig3Curve is the motivating example's scaling curve: 1 unit of throughput
// with 1 worker, 1.5 with 2 (Fig. 3(a)).
func fig3Curve() throughput.Curve {
	return throughput.MustCurve(map[int]float64{1: 1, 2: 1.5})
}

func toyScheduler() *ElasticFlow {
	return New(Options{SlotSec: 1, PowerOfTwo: true, SafetyRescales: -1})
}

func newToyJob(id string, curve throughput.Curve, iters, deadline float64) *job.Job {
	return &job.Job{
		ID:          id,
		GlobalBatch: 8,
		TotalIters:  iters,
		Deadline:    deadline,
		Class:       job.SLO,
		Curve:       curve,
		MinGPUs:     1,
		MaxGPUs:     curve.MaxWorkers(),
		State:       job.Admitted,
	}
}

// TestFig3BothJobsMeetDeadlines reproduces Fig. 3(c): jobs A (deadline 3)
// and B (deadline 3.5), each 3 iterations on the Fig. 3 curve, both fit on
// 2 GPUs with one worker each — the allocation EDF misses.
func TestFig3BothJobsMeetDeadlines(t *testing.T) {
	ef := toyScheduler()
	a := newToyJob("A", fig3Curve(), 3, 3)
	b := newToyJob("B", fig3Curve(), 3, 3.5)

	if !ef.Admit(0, a, nil, 2) {
		t.Fatal("job A rejected")
	}
	if !ef.Admit(0, b, []*job.Job{a}, 2) {
		t.Fatal("job B rejected: ElasticFlow should satisfy both deadlines")
	}
	dec := ef.Schedule(0, []*job.Job{a, b}, 2)
	if dec.Alloc["A"] != 1 || dec.Alloc["B"] != 1 {
		t.Errorf("allocation = %v want one worker each (Fig. 3(c))", dec.Alloc)
	}
}

// TestFig3ThirdJobRejected: with both jobs admitted the cluster is exactly
// full through time 3; a third identical job with deadline 3 must be dropped.
func TestFig3ThirdJobRejected(t *testing.T) {
	ef := toyScheduler()
	a := newToyJob("A", fig3Curve(), 3, 3)
	b := newToyJob("B", fig3Curve(), 3, 3.5)
	c := newToyJob("C", fig3Curve(), 3, 3)
	if !ef.Admit(0, a, nil, 2) || !ef.Admit(0, b, []*job.Job{a}, 2) {
		t.Fatal("setup jobs rejected")
	}
	if ef.Admit(0, c, []*job.Job{a, b}, 2) {
		t.Error("job C admitted although no allocation can satisfy all three deadlines")
	}
}

// TestFig4MSSWithContention reproduces §4.1's admission walk-through: job C
// (deadline 2, 3 iterations, Fig. 4(a) curve) in a 4-GPU cluster where jobs
// A and B consume 3 GPUs in slot 0 needs the plan [1, 4].
func TestFig4MSSWithContention(t *testing.T) {
	ef := toyScheduler()
	curve := throughput.MustCurve(map[int]float64{1: 1, 2: 1.5, 4: 2})
	// A and B together: model them as jobs with deadline 1 needing 3 GPUs
	// in slot 0. Give A 1 GPU × 1 slot (1 iter at tput 1) and B 2 GPUs ×
	// 1 slot (1.5 iters at tput 1.5).
	a := newToyJob("A", curve, 1, 1)
	b := newToyJob("B", curve, 1.5, 1)
	b.MinGPUs = 2
	c := newToyJob("C", curve, 3, 2)

	if !ef.Admit(0, c, []*job.Job{a, b}, 4) {
		t.Fatal("job C rejected although satisfiable")
	}
	mss := ef.MinimumSatisfactoryShare(0, []*job.Job{a, b, c}, 4)
	got := mss["C"]
	if !got.Satisfied {
		t.Fatalf("C unsatisfied: %+v", got)
	}
	if got.GPUsAt(0) != 1 || got.GPUsAt(1) != 4 {
		t.Errorf("C plan = %v want [1 4] (§4.1 example)", got.Levels)
	}
}

// TestAdmitRespectsExistingDeadlines: a new job that would break an admitted
// job's guarantee is dropped even when its own deadline is satisfiable.
func TestAdmitRespectsExistingDeadlines(t *testing.T) {
	ef := toyScheduler()
	curve := fig3Curve()
	a := newToyJob("A", curve, 4, 4)
	if !ef.Admit(0, a, nil, 1) {
		t.Fatal("A rejected on empty cluster")
	}
	// B alone would fit (deadline 2, 2 iters, 1 GPU), but admitting it
	// starves A (A needs all 4 slots on the single GPU).
	bJob := newToyJob("B", curve, 2, 2)
	if ef.Admit(0, bJob, []*job.Job{a}, 1) {
		t.Error("B admitted although it violates A's guarantee")
	}
}

func TestAdmitBestEffortAlways(t *testing.T) {
	ef := toyScheduler()
	be := newToyJob("BE", fig3Curve(), 1e9, math.Inf(1))
	be.Class = job.BestEffort
	if !ef.Admit(0, be, nil, 1) {
		t.Error("best-effort job rejected")
	}
}

// TestScheduleWorkConservation: leftover GPUs flow to admitted jobs as long
// as scaling up still helps (constraint (7) of §4.2).
func TestScheduleWorkConservation(t *testing.T) {
	ef := toyScheduler()
	curve := throughput.MustCurve(map[int]float64{1: 1, 2: 1.8, 4: 3, 8: 4.5})
	a := newToyJob("A", curve, 10, 100)
	dec := ef.Schedule(0, []*job.Job{a}, 8)
	// MSS is 1 GPU, but the spare 7 GPUs should raise A to its maximum
	// useful count since each step finishes it earlier.
	if dec.Alloc["A"] != 8 {
		t.Errorf("alloc=%d want 8 (all spare GPUs go to the only job)", dec.Alloc["A"])
	}
}

// TestScheduleMarginalReturnOrdering: spare capacity goes to the job whose
// scaling curve wastes the least GPU time, not simply the earliest deadline.
func TestScheduleMarginalReturnOrdering(t *testing.T) {
	ef := toyScheduler()
	// efficientCurve scales almost linearly; poorCurve saturates.
	efficientCurve := throughput.MustCurve(map[int]float64{1: 1, 2: 1.95, 4: 3.8})
	poorCurve := throughput.MustCurve(map[int]float64{1: 1, 2: 1.1, 4: 1.15})
	a := newToyJob("A", poorCurve, 20, 40)
	b := newToyJob("B", efficientCurve, 20, 40)
	// Only one spare GPU exists (G=3, two MSS of 1): it must go to the
	// efficient job, whose marginal step wastes the least GPU time.
	dec := ef.Schedule(0, []*job.Job{a, b}, 3)
	if dec.Alloc["A"] != 1 || dec.Alloc["B"] != 2 {
		t.Errorf("alloc=%v want A:1 B:2 — the spare GPU goes to the efficient job", dec.Alloc)
	}
}

// TestScheduleDeadlinesStillGuaranteed: expanding one job must never consume
// capacity another admitted job's MSS needs.
func TestScheduleDeadlinesStillGuaranteed(t *testing.T) {
	ef := toyScheduler()
	curve := throughput.MustCurve(map[int]float64{1: 1, 2: 1.5, 4: 2})
	// A has a loose deadline; B is tight and needs 2 GPUs in both slots.
	a := newToyJob("A", curve, 8, 16)
	b := newToyJob("B", curve, 3, 2)
	dec := ef.Schedule(0, []*job.Job{a, b}, 4)
	if dec.Alloc["B"] < 2 {
		t.Errorf("B got %d GPUs; its deadline requires 2", dec.Alloc["B"])
	}
	// Simulate one slot and re-check B finishes by its deadline.
	bt := b.Curve.At(dec.Alloc["B"])
	if remaining := b.TotalIters - bt; remaining > curve.At(4)*1 {
		t.Errorf("B cannot finish: %.2f left, max %.2f per slot", remaining, curve.At(4))
	}
}

// TestScheduleBestEffortGetsLeftovers: best-effort jobs receive capacity
// only after SLO guarantees, but do receive it when available (§4.4).
func TestScheduleBestEffortGetsLeftovers(t *testing.T) {
	ef := toyScheduler()
	curve := throughput.MustCurve(map[int]float64{1: 1, 2: 1.5, 4: 2})
	slo := newToyJob("S", curve, 3, 2) // needs 2 GPUs both slots
	be := newToyJob("E", curve, 100, math.Inf(1))
	be.Class = job.BestEffort
	dec := ef.Schedule(0, []*job.Job{slo, be}, 4)
	if dec.Alloc["S"] < 2 {
		t.Errorf("SLO job got %d GPUs, deadline needs 2", dec.Alloc["S"])
	}
	if dec.Alloc["E"] == 0 {
		t.Error("best-effort job starved although GPUs are free")
	}
	if dec.Alloc["S"]+dec.Alloc["E"] > 4 {
		t.Errorf("overcommitted: %v", dec.Alloc)
	}
}

// TestScheduleWakeAtPlanChange: when a plan changes level at a future slot,
// the decision carries a wake-up at that boundary.
func TestScheduleWakeAtPlanChange(t *testing.T) {
	ef := toyScheduler()
	curve := throughput.MustCurve(map[int]float64{1: 1, 2: 1.5, 4: 2})
	// Recreate Fig. 4(c): C gets [1,4] because A+B hold 3 GPUs in slot 0.
	a := newToyJob("A", curve, 1, 1)
	b := newToyJob("B", curve, 1.5, 1)
	b.MinGPUs = 2
	c := newToyJob("C", curve, 3, 2)
	dec := ef.Schedule(0, []*job.Job{a, b, c}, 4)
	if dec.Wake <= 0 || dec.Wake > 1 {
		t.Errorf("wake=%v want a wake-up at slot boundary 1", dec.Wake)
	}
}

// TestGreedyMatchesBruteForce cross-checks Theorem 2 on small instances: the
// greedy allocation's total GPU time equals the optimum found by exhaustive
// search over constant-level plans, for jobs with concave curves and loose
// deadlines where constant plans are optimal.
func TestGreedyMatchesBruteForce(t *testing.T) {
	curve := throughput.MustCurve(map[int]float64{1: 1, 2: 1.8, 4: 3.2})
	const g = 4
	for _, iters := range []float64{4, 6, 10} {
		ef := toyScheduler()
		a := newToyJob("A", curve, iters, 1000)
		b := newToyJob("B", curve, iters, 1000)
		dec := ef.Schedule(0, []*job.Job{a, b}, g)
		sumAlloc := dec.Alloc["A"] + dec.Alloc["B"]
		if sumAlloc > g {
			t.Fatalf("overcommit: %v", dec.Alloc)
		}
		// Work conservation: with two identical concave jobs and loose
		// deadlines, all GPUs should be in use (2+2).
		if sumAlloc != g {
			t.Errorf("iters=%v: allocated %d of %d GPUs: %v", iters, sumAlloc, g, dec.Alloc)
		}
		if dec.Alloc["A"] != dec.Alloc["B"] {
			t.Errorf("iters=%v: identical jobs got unequal allocations %v", iters, dec.Alloc)
		}
	}
}

// TestAdmissionFillsByDeadlineOrder: admission must consider jobs in
// deadline order; a feasible set must stay feasible regardless of the order
// jobs arrive in.
func TestAdmissionFillsByDeadlineOrder(t *testing.T) {
	curve := fig3Curve()
	mk := func() []*job.Job {
		return []*job.Job{
			newToyJob("late", curve, 3, 6),
			newToyJob("early", curve, 2, 2),
		}
	}
	// Arrival order 1: late first.
	ef := toyScheduler()
	jobs := mk()
	if !ef.Admit(0, jobs[0], nil, 1) {
		t.Fatal("late rejected on empty cluster")
	}
	if !ef.Admit(0, jobs[1], jobs[:1], 1) {
		t.Error("early rejected although EDF-order filling fits both")
	}
	// Arrival order 2: early first.
	ef2 := toyScheduler()
	jobs2 := mk()
	if !ef2.Admit(0, jobs2[1], nil, 1) {
		t.Fatal("early rejected on empty cluster")
	}
	if !ef2.Admit(0, jobs2[0], jobs2[1:2], 1) {
		t.Error("late rejected although EDF-order filling fits both")
	}
}

// TestScheduleDeterministic: identical inputs yield identical decisions.
func TestScheduleDeterministic(t *testing.T) {
	curve := throughput.MustCurve(map[int]float64{1: 1, 2: 1.7, 4: 2.6, 8: 3.4})
	mk := func() []*job.Job {
		var js []*job.Job
		for i := 0; i < 6; i++ {
			j := newToyJob(fmt.Sprintf("j%d", i), curve, float64(10+i*3), float64(20+i*5))
			js = append(js, j)
		}
		return js
	}
	ef := toyScheduler()
	d1 := ef.Schedule(0, mk(), 8)
	d2 := ef.Schedule(0, mk(), 8)
	for id, g := range d1.Alloc {
		if d2.Alloc[id] != g {
			t.Errorf("non-deterministic allocation for %s: %d vs %d", id, g, d2.Alloc[id])
		}
	}
	if d1.Wake != d2.Wake {
		t.Errorf("non-deterministic wake: %v vs %v", d1.Wake, d2.Wake)
	}
}

// TestScheduleNeverOvercommits across a few random-ish configurations.
func TestScheduleNeverOvercommits(t *testing.T) {
	curve := throughput.MustCurve(map[int]float64{1: 1, 2: 1.8, 4: 3, 8: 4.2, 16: 5})
	for n := 1; n <= 12; n++ {
		var jobs []*job.Job
		for i := 0; i < n; i++ {
			j := newToyJob(fmt.Sprintf("j%d", i), curve, float64(5+7*i%23), float64(10+3*i))
			if i%3 == 0 {
				j.Class = job.BestEffort
				j.Deadline = math.Inf(1)
			}
			jobs = append(jobs, j)
		}
		ef := toyScheduler()
		dec := ef.Schedule(0, jobs, 16)
		total := 0
		for _, g := range dec.Alloc {
			total += g
		}
		if total > 16 {
			t.Errorf("n=%d: overcommitted %d GPUs: %v", n, total, dec.Alloc)
		}
	}
}

// TestDemotedJobStillRuns: an admitted SLO job whose deadline has become
// unsatisfiable keeps running best-effort rather than being starved.
func TestDemotedJobStillRuns(t *testing.T) {
	ef := toyScheduler()
	late := newToyJob("late", fig3Curve(), 100, 2) // cannot finish by 2
	dec := ef.Schedule(0, []*job.Job{late}, 4)
	if dec.Alloc["late"] == 0 {
		t.Error("unsatisfiable job starved; should run best-effort (§4.4)")
	}
}

// TestReserveGPUsReducesAdmission: the §4.4 failure reserve withholds
// capacity from admission control.
func TestReserveGPUsReducesAdmission(t *testing.T) {
	curve := throughput.MustCurve(map[int]float64{1: 1, 2: 1.5, 4: 2})
	mk := func(id string) *job.Job {
		return &job.Job{ID: id, GlobalBatch: 8, TotalIters: 8, Deadline: 4, Class: job.SLO,
			Curve: curve, MinGPUs: 1, MaxGPUs: 4}
	}
	plain := New(Options{SlotSec: 1, PowerOfTwo: true, SafetyRescales: -1})
	reserved := New(Options{SlotSec: 1, PowerOfTwo: true, SafetyRescales: -1, ReserveGPUs: 2})
	// The job needs 2 iters/slot for 4 slots, i.e. all 4 GPUs.
	if !plain.Admit(0, mk("a"), nil, 4) {
		t.Error("plain scheduler rejected a feasible job")
	}
	if reserved.Admit(0, mk("a"), nil, 4) {
		t.Error("reserved scheduler admitted a job that needs the reserve")
	}
}

// TestSoftDeadlineScheduledBestEffort: soft-deadline jobs are always
// admitted and scheduled like best-effort work — they never reserve MSS
// capacity that would block an SLO guarantee (§4.4).
func TestSoftDeadlineScheduledBestEffort(t *testing.T) {
	ef := toyScheduler()
	curve := throughput.MustCurve(map[int]float64{1: 1, 2: 1.5, 4: 2})
	soft := newToyJob("soft", curve, 1000, 1) // hopeless deadline
	soft.Class = job.SoftDeadline
	if !ef.Admit(0, soft, nil, 4) {
		t.Fatal("soft-deadline job rejected; must always be admitted")
	}
	// A tight SLO job arriving later still gets its full guarantee.
	slo := newToyJob("slo", curve, 3, 2) // needs 2 GPUs both slots
	if !ef.Admit(0, slo, []*job.Job{soft}, 4) {
		t.Fatal("SLO job rejected because of a soft-deadline job")
	}
	dec := ef.Schedule(0, []*job.Job{soft, slo}, 4)
	if dec.Alloc["slo"] < 2 {
		t.Errorf("SLO job got %d GPUs; soft job must not displace its MSS", dec.Alloc["slo"])
	}
	if dec.Alloc["soft"] == 0 {
		t.Error("soft-deadline job starved although capacity remains")
	}
}

// TestWorkConservationProperty is constraint (7) of §4.2 as a randomized
// property: after Schedule, either every GPU is allocated, or each job left
// below its ceiling cannot take its next step — because the step does not
// fit in the free GPUs, or because it would not finish the job any earlier.
func TestWorkConservationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		g := 4 << rng.Intn(3) // 4, 8, 16
		n := 1 + rng.Intn(6)
		var jobs []*job.Job
		for i := 0; i < n; i++ {
			// Random concave curve over powers of two.
			pts := map[int]float64{}
			tput := 1.0
			gain := 0.6 + 0.35*rng.Float64()
			for w := 1; w <= g; w *= 2 {
				pts[w] = tput
				tput += tput * gain
				gain *= 0.5 + 0.4*rng.Float64()
			}
			j := newToyJob(fmt.Sprintf("w%d", i), throughput.MustCurve(pts), 5+rng.Float64()*40, 10+rng.Float64()*80)
			jobs = append(jobs, j)
		}
		ef := toyScheduler()
		dec := ef.Schedule(0, jobs, g)
		used := 0
		for _, a := range dec.Alloc {
			used += a
		}
		if used > g {
			t.Fatalf("trial %d: overcommitted %d/%d", trial, used, g)
		}
		if used == g {
			continue // fully allocated: conserved
		}
		free := g - used
		for _, j := range jobs {
			cur := dec.Alloc[j.ID]
			next := cur * 2
			if cur == 0 {
				next = j.MinGPUs
			}
			if next > j.MaxGPUs || next-cur > free {
				continue // step infeasible: fine
			}
			// The step fits; it must not improve the finish time
			// (otherwise the greedy should have taken it).
			curT := j.TimeToFinish(cur)
			nextT := j.TimeToFinish(next)
			if nextT < curT-1e-9 {
				t.Errorf("trial %d: job %s could still improve (%d→%d GPUs, %.2f→%.2f) with %d free",
					trial, j.ID, cur, next, curT, nextT, free)
			}
		}
	}
}

// TestEarliestDeadline: the suggested deadline is itself admissible and one
// slot earlier is not.
func TestEarliestDeadline(t *testing.T) {
	ef := toyScheduler()
	curve := throughput.MustCurve(map[int]float64{1: 1, 2: 1.5, 4: 2})
	// Background job holds 2 of 4 GPUs for 10 slots.
	bg := newToyJob("bg", curve, 15, 10)
	bg.MinGPUs = 2
	bg.MaxGPUs = 2
	cand := newToyJob("cand", curve, 20, 1) // requested deadline hopeless
	if ef.Admit(0, cand, []*job.Job{bg}, 4) {
		t.Fatal("hopeless deadline admitted")
	}
	dl, ok := ef.EarliestDeadline(0, cand, []*job.Job{bg}, 4)
	if !ok {
		t.Fatal("no feasible deadline found")
	}
	// The suggestion must be admissible…
	c := *cand
	c.Deadline = dl
	if !ef.Admit(0, &c, []*job.Job{bg}, 4) {
		t.Errorf("suggested deadline %.1f not admissible", dl)
	}
	// …and tight: one slot earlier must fail.
	c2 := *cand
	c2.Deadline = dl - 1.0001 // one toy slot earlier
	if ef.Admit(0, &c2, []*job.Job{bg}, 4) {
		t.Errorf("deadline %.1f admissible; suggestion %.1f not minimal", c2.Deadline, dl)
	}
	// Sanity: the job needs ≥10 iterations of headroom with 2 GPUs busy:
	// 20 iters at tput 1.5 (2 GPUs) ≈ 13.3 slots minimum.
	if dl < 13 || dl > 25 {
		t.Errorf("suggested deadline %.1f outside plausible range", dl)
	}
	// An impossible job (needs more than the horizon) reports !ok.
	hopeless := newToyJob("x", curve, 1e12, 1)
	if _, ok := ef.EarliestDeadline(0, hopeless, nil, 4); ok {
		t.Error("infeasible job got a deadline suggestion")
	}
}

// TestSplitJobsOrderIndependent checks that splitJobs' two orders are total:
// shuffles of one active set, with tied deadlines and tied submit times, give
// identical slo and be lists. It is what lets the sort behind them change
// without moving a decision.
func TestSplitJobsOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	classes := []job.Class{job.SLO, job.BestEffort, job.SoftDeadline}
	var active []*job.Job
	for i := 0; i < 90; i++ {
		active = append(active, &job.Job{
			ID:         fmt.Sprintf("j%02d", i*37%90),
			Class:      classes[i%len(classes)],
			SubmitTime: float64(rng.Intn(4)),
			Deadline:   float64(100 + 10*rng.Intn(4)),
		})
	}
	wantSLO, wantBE := splitJobs(active)
	tied := func(list []*job.Job, key func(*job.Job) float64) bool {
		for i := 1; i < len(list); i++ {
			if !(key(list[i-1]) < key(list[i])) && !(key(list[i-1]) > key(list[i])) {
				return true
			}
		}
		return false
	}
	if !tied(wantSLO, func(j *job.Job) float64 { return j.Deadline }) || !tied(wantBE, func(j *job.Job) float64 { return j.SubmitTime }) {
		t.Fatal("fixture has no tied deadlines or no tied submit times")
	}
	for i := 1; i < len(wantSLO); i++ {
		if !deadlineBefore(wantSLO[i-1], wantSLO[i]) {
			t.Fatalf("slo[%d]=%s does not fill before slo[%d]=%s", i-1, wantSLO[i-1].ID, i, wantSLO[i].ID)
		}
	}
	for i := 1; i < len(wantBE); i++ {
		if submitOrder(wantBE[i-1], wantBE[i]) >= 0 {
			t.Fatalf("be[%d]=%s does not come before be[%d]=%s", i-1, wantBE[i-1].ID, i, wantBE[i].ID)
		}
	}
	for n := 0; n < 50; n++ {
		shuffled := slices.Clone(active)
		rng.Shuffle(len(shuffled), func(i, k int) { shuffled[i], shuffled[k] = shuffled[k], shuffled[i] })
		slo, be := splitJobs(shuffled)
		if !slices.Equal(slo, wantSLO) || !slices.Equal(be, wantBE) {
			t.Fatalf("shuffle %d changed the order", n)
		}
	}
}

// refQueue is Algorithm 2's queue as it was, through container/heap's
// interface: the reference the typed prioQueue must pop in the same order as.
type refQueue []*prioJob

func (q refQueue) Len() int            { return len(q) }
func (q refQueue) Less(i, k int) bool  { return q[i].priority > q[k].priority }
func (q refQueue) Swap(i, k int)       { q[i], q[k] = q[k], q[i] }
func (q *refQueue) Push(x interface{}) { *q = append(*q, x.(*prioJob)) }
func (q *refQueue) Pop() interface{} {
	old := *q
	n := len(old)
	p := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return p
}

// TestPrioQueuePopsAsContainerHeap drives the typed queue and container/heap
// over the same entries — priorities drawn from a handful of values, so most
// pushes tie, interleaved with pops as allocate interleaves them — and
// requires the same entry from every pop: equal priorities must leave in the
// order they always have, or Algorithm 2 would adopt another job's probe.
func TestPrioQueuePopsAsContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 200; round++ {
		var q prioQueue
		var ref refQueue
		n := 1 + rng.Intn(300)
		entries := make([]prioJob, n)
		pops := 0
		for i := range entries {
			p := &entries[i]
			p.priority = float64(rng.Intn(4))
			if rng.Intn(8) == 0 {
				p.priority = rng.Float64()
			}
			q.push(p)
			heap.Push(&ref, p)
			for len(q) > 0 && rng.Intn(3) == 0 {
				got, want := q.pop(), heap.Pop(&ref).(*prioJob)
				if got != want {
					t.Fatalf("round %d, pop %d: entry %p (priority %v), container/heap pops %p (priority %v)",
						round, pops, got, got.priority, want, want.priority)
				}
				pops++
			}
		}
		for len(q) > 0 {
			if got, want := q.pop(), heap.Pop(&ref).(*prioJob); got != want {
				t.Fatalf("round %d, draining pop %d: entry %p, container/heap pops %p", round, pops, got, want)
			}
			pops++
		}
		if ref.Len() != 0 || pops != n {
			t.Fatalf("round %d: %d pops of %d pushes, %d left in the reference", round, pops, n, ref.Len())
		}
	}
}
