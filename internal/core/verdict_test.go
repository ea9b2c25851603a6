package core

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"

	"github.com/elasticflow/elasticflow/internal/job"
	"github.com/elasticflow/elasticflow/internal/plan"
	"github.com/elasticflow/elasticflow/internal/throughput"
)

// referencePass is one plain deadline-ordered fold over the SLO jobs of jobs,
// no cache and no early exit: which jobs come out satisfied, and cand's fill.
// cand's unsatisfied fill commits nothing, every other job's its recovery
// plan.
func referencePass(e *ElasticFlow, now float64, jobs []*job.Job, cand *job.Job, g int) (map[string]bool, plan.Allocation) {
	slo, _ := splitJobs(jobs)
	f := plan.NewFiller(g, e.opts.SlotSec, e.opts.PowerOfTwo)
	ok := make(map[string]bool, len(slo))
	var candFill plan.Allocation
	for _, j := range slo {
		d := e.demand(j, now)
		a := f.Fill(d)
		ok[j.ID] = a.Satisfied
		switch {
		case a.Satisfied:
			f.Commit(a)
		case j != cand:
			f.Commit(f.FillEarliest(d, e.opts.HorizonSlots))
		}
		if j == cand {
			candFill = a
		}
	}
	return ok, candFill
}

// twoPassVerdict is Algorithm 1 as first written, kept as the reference the
// verdict-driven routine must agree with: fill every active SLO job in
// deadline order without the candidate, fill them all again with it, then
// compare the two outcomes job by job. No cache, no early exit.
func twoPassVerdict(e *ElasticFlow, now float64, cand *job.Job, active []*job.Job, g int) admitVerdict {
	g = e.admitCapacity(g)
	okWithout, _ := referencePass(e, now, active, nil, g)
	okWith, mss := referencePass(e, now, append(append([]*job.Job(nil), active...), cand), cand, g)
	if !okWith[cand.ID] {
		return admitVerdict{reason: "candidate-infeasible", mss: mss}
	}
	slo, _ := splitJobs(active)
	for _, j := range slo {
		if okWithout[j.ID] && !okWith[j.ID] {
			return admitVerdict{reason: "breaks-guarantee", victim: j.ID, mss: mss}
		}
	}
	return admitVerdict{ok: true, reason: "ok", mss: mss}
}

// hasDemoted reports whether an active SLO job is unsatisfiable already, with
// no candidate: the case in which feasibility need not be monotone in the
// deadline.
func hasDemoted(e *ElasticFlow, now float64, active []*job.Job, g int) bool {
	ok, _ := referencePass(e, now, active, nil, e.admitCapacity(g))
	for _, sat := range ok {
		if !sat {
			return true
		}
	}
	return false
}

// bisectEarliestDeadline is the counter-offer search as first written, kept
// as the reference for earliestDeadline: a binary search over the planning
// slots from lo to the horizon with a full verdict per probe. It returns the
// minimal admissible slot whenever feasibility is monotone in the deadline.
func bisectEarliestDeadline(e *ElasticFlow, now float64, cand *job.Job, slo []*job.Job, g, lo int) (float64, bool) {
	deadlineAt := func(slots int) float64 {
		return now + e.rescaleMargin(cand) + float64(slots+1)*e.opts.SlotSec
	}
	check := func(slots int) bool {
		c := *cand
		c.Deadline = deadlineAt(slots)
		return e.verdict(now, &c, slo, g).ok
	}
	hi := e.opts.HorizonSlots
	if !check(hi) {
		return 0, false
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if check(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return deadlineAt(lo), true
}

// VerdictMismatch describes how the scheduler's feasibility verdict for cand
// differs from the two-pass reference — verdict, reason, victim or minimum
// satisfactory share — or returns "" when they agree. Exported (to tests
// only) for the external-package fuzz target.
func (e *ElasticFlow) VerdictMismatch(now float64, cand *job.Job, active []*job.Job, g int) string {
	slo, _ := splitJobs(active)
	got := e.verdict(now, cand, slo, e.admitCapacity(g))
	if want := twoPassVerdict(e, now, cand, active, g); !reflect.DeepEqual(got, want) {
		return fmt.Sprintf("verdict for %s at now=%v over %d active jobs:\n got  %+v\n want %+v", cand.ID, now, len(active), got, want)
	}
	return ""
}

// OfferMismatch asks a one-candidate admission batch for cand's verdict and,
// when it is a refusal, for the counter-offer a platform would send back, and
// describes how that offer breaks its contract (see offerMismatch) — or
// returns "" when it keeps it. Exported (to tests only) for the
// external-package fuzz target.
func (e *ElasticFlow) OfferMismatch(now float64, cand *job.Job, active []*job.Job, g int) string {
	ba := e.BeginAdmitBatch(now, g)
	if ba.decide(cand, active).ok {
		return ""
	}
	dl, ok := ba.EarliestDeadline(cand, active)
	return offerMismatch(e, now, cand, active, g, dl, ok)
}

// offerMismatch checks a batch's counter-offer (dl, ok) for a candidate it
// just refused: the offered deadline is admissible by the two-pass reference,
// it is not earlier than the refused deadline's slot (where the search
// starts), and unless it sits on that slot the deadline one slot earlier is
// refused — the boundary property every offer keeps. With no demoted job in
// the active set the offer must also equal the reference bisection's, unless
// the two show that feasibility is not monotone in the deadline here: the
// earlier of the two offers admissible and the slot before the later one
// refused. (Demoted jobs make that common; without them it is rare, and the
// workloads of TestAdmitVerdictMatchesTwoPass never meet it.)
func offerMismatch(e *ElasticFlow, now float64, cand *job.Job, active []*job.Job, g int, dl float64, ok bool) string {
	at := func(deadline float64) admitVerdict {
		c := *cand
		c.Deadline = deadline
		return twoPassVerdict(e, now, &c, active, g)
	}
	refused := e.demand(cand, now).DeadlineSlot
	if !hasDemoted(e, now, active, g) {
		slo, _ := splitJobs(active)
		wantDL, wantOK := bisectEarliestDeadline(e, now, cand, slo, e.admitCapacity(g), refused)
		if ok != wantOK || dl != wantDL && !(at(min(dl, wantDL)).ok && !at(max(dl, wantDL)-e.opts.SlotSec).ok) {
			return fmt.Sprintf("%s at now=%v: offer (%v, %v), the reference bisection offers (%v, %v)", cand.ID, now, dl, ok, wantDL, wantOK)
		}
	}
	if !ok {
		horizon := now + e.rescaleMargin(cand) + float64(e.opts.HorizonSlots+1)*e.opts.SlotSec
		if v := at(horizon); v.ok {
			return fmt.Sprintf("%s: no counter-offer although the horizon deadline is admissible", cand.ID)
		}
		return ""
	}
	if v := at(dl); !v.ok {
		return fmt.Sprintf("%s: offered deadline %v is not admissible: %+v", cand.ID, dl, v)
	}
	slot := int(math.Round((dl-now-e.rescaleMargin(cand))/e.opts.SlotSec)) - 1
	switch {
	case slot < refused:
		return fmt.Sprintf("%s: offer at slot %d is earlier than the refused deadline's slot %d", cand.ID, slot, refused)
	case slot > refused:
		if v := at(dl - e.opts.SlotSec); v.ok {
			return fmt.Sprintf("%s: offer at slot %d but slot %d is admissible too", cand.ID, slot, slot-1)
		}
	}
	return ""
}

var verdictCurves = []throughput.Curve{
	throughput.MustCurve(map[int]float64{1: 1, 2: 1.5, 4: 2}),
	throughput.MustCurve(map[int]float64{1: 1, 2: 1.8, 4: 3, 8: 4.5}),
	throughput.MustCurve(map[int]float64{1: 1, 2: 1.1, 4: 1.15}),
}

func randomSLOJob(rng *rand.Rand, id string, now float64) *job.Job {
	return &job.Job{
		ID:                 id,
		TotalIters:         50 + rng.Float64()*600,
		SubmitTime:         now,
		Deadline:           now + 90 + rng.Float64()*2400,
		Class:              job.SLO,
		Curve:              verdictCurves[rng.Intn(len(verdictCurves))],
		MinGPUs:            1,
		RescaleOverheadSec: 10,
	}
}

// TestAdmitVerdictMatchesTwoPass drives the cached and the cache-less
// scheduler through randomized active sets — including jobs forced in past
// a refusal, so demoted jobs sit ahead of and behind the candidates — and
// checks every verdict (reason, victim, minimum satisfactory share) against
// the two-pass reference, several candidates per timestamp so verdicts also
// resume from one another's cached folds. Every refused candidate's
// counter-offer is checked against the reference too.
func TestAdmitVerdictMatchesTwoPass(t *testing.T) {
	reasons := map[string]int{}
	for seed := int64(1); seed <= 6; seed++ {
		for _, e := range []*ElasticFlow{
			New(Options{PowerOfTwo: true}),
			New(Options{PowerOfTwo: true, DisablePlanCache: true, ReserveGPUs: 2}),
			New(Options{PowerOfTwo: false, SlotSec: 30}),
		} {
			rng := rand.New(rand.NewSource(seed))
			var active []*job.Job
			now, g, nextID := 0.0, 16, 0
			for step := 0; step < 40; step++ {
				ba := e.BeginAdmitBatch(now, g)
				for c := 0; c < 3; c++ {
					nextID++
					cand := randomSLOJob(rng, fmt.Sprintf("j%03d", nextID), now)
					if msg := e.VerdictMismatch(now, cand, active, g); msg != "" {
						t.Fatalf("seed %d step %d: %s", seed, step, msg)
					}
					admitted := ba.Admit(cand, active)
					v := twoPassVerdict(e, now, cand, active, g)
					reasons[v.reason]++
					if admitted != v.ok {
						t.Fatalf("seed %d step %d: Admit(%s)=%v, reference %+v", seed, step, cand.ID, admitted, v)
					}
					if !admitted {
						checkCounterOffer(t, e, ba, now, cand, active, g)
					}
					// Forcing a refused job in now and then plants demoted
					// jobs in the active set.
					if admitted || rng.Intn(3) == 0 {
						active = append(active, cand)
					}
				}
				if len(active) > 0 && rng.Intn(2) == 0 {
					j := active[rng.Intn(len(active))]
					j.DoneIters += rng.Float64() * 60
				}
				if len(active) > 4 && rng.Intn(2) == 0 {
					i := rng.Intn(len(active))
					active = append(active[:i], active[i+1:]...)
				}
				if rng.Intn(3) > 0 {
					now += float64(rng.Intn(200))
				}
			}
		}
	}
	for _, r := range []string{"ok", "candidate-infeasible", "breaks-guarantee"} {
		if reasons[r] == 0 {
			t.Errorf("no %q verdict among %v: the generator no longer covers it", r, reasons)
		}
	}
}

// checkCounterOffer holds the batch's counter-offer for a candidate it just
// refused to its contract (offerMismatch).
func checkCounterOffer(t *testing.T, e *ElasticFlow, ba *AdmitBatch, now float64, cand *job.Job, active []*job.Job, g int) {
	t.Helper()
	dl, ok := ba.EarliestDeadline(cand, active)
	if msg := offerMismatch(e, now, cand, active, g, dl, ok); msg != "" {
		t.Fatal(msg)
	}
}

// TestCounterOfferMatchesBisection holds the counter-offer search to its
// contract (offerMismatch) on workloads built for the comparison with the
// reference bisection: only admitted jobs stay active and they progress as
// time moves, so most active sets hold no demoted job, and short slots make
// the deadline brackets several slots wide, so the walk bisects inside one.
// It also requires that both of the search's ways to an answer are taken
// often: where the candidate first fits inside a bracket (the slot before is
// candidate-infeasible at the same position), and past a victim (the slot
// before breaks a guarantee).
func TestCounterOfferMatchesBisection(t *testing.T) {
	compared, inBracket, pastVictim := 0, 0, 0
	for seed := int64(1); seed <= 4; seed++ {
		for _, e := range []*ElasticFlow{
			New(Options{PowerOfTwo: true, SlotSec: 10}),
			New(Options{PowerOfTwo: false, SlotSec: 15, DisablePlanCache: true}),
		} {
			rng := rand.New(rand.NewSource(seed))
			var active []*job.Job
			now, g, nextID := 0.0, 8, 0
			for step := 0; step < 40; step++ {
				ba := e.BeginAdmitBatch(now, g)
				for c := 0; c < 5; c++ {
					nextID++
					cand := randomSLOJob(rng, fmt.Sprintf("j%03d", nextID), now)
					if ba.Admit(cand, active) {
						active = append(active, cand)
						continue
					}
					dl, ok := ba.EarliestDeadline(cand, active)
					if msg := offerMismatch(e, now, cand, active, g, dl, ok); msg != "" {
						t.Fatalf("seed %d step %d: %s", seed, step, msg)
					}
					if !ok {
						continue
					}
					if !hasDemoted(e, now, active, g) {
						compared++
					}
					slo, _ := splitJobs(active)
					before, offered := *cand, *cand
					before.Deadline, offered.Deadline = dl-e.opts.SlotSec, dl
					switch v := twoPassVerdict(e, now, &before, active, g); {
					case before.Deadline <= cand.Deadline:
					case v.reason == "breaks-guarantee":
						pastVictim++
					case position(slo, &before) == position(slo, &offered):
						inBracket++
					}
				}
				dt := float64(30 + rng.Intn(90))
				now += dt
				kept := active[:0]
				for _, j := range active {
					j.DoneIters += dt * j.Curve.At(2)
					if j.RemainingIters() > 0 && j.Deadline > now {
						kept = append(kept, j)
					}
				}
				active = kept
			}
		}
	}
	if compared < 50 || inBracket < 20 || pastVictim < 10 {
		t.Errorf("%d offers compared with the reference, %d found inside a bracket, %d past a victim: the generator no longer covers the search", compared, inBracket, pastVictim)
	}
}

// TestAdmitFillCounts pins what a verdict costs at a timestamp nothing is
// cached for: one fill per active job plus the candidate's when it is
// admitted, and only the fills up to and including the candidate's own when
// it is infeasible at position k of the deadline order; that demoted jobs
// behind the candidate add one fold without it, not one per job; and what a
// counter-offer costs when the candidate's first fit is the answer.
func TestAdmitFillCounts(t *testing.T) {
	e := New(Options{PowerOfTwo: true})
	curve := throughput.MustCurve(map[int]float64{1: 1, 2: 1.5, 4: 2})
	const n = 8
	var active []*job.Job
	for i := 0; i < n; i++ {
		active = append(active, &job.Job{
			ID: fmt.Sprintf("s%d", i), TotalIters: 100, Deadline: 1e4 + float64(i)*100,
			Class: job.SLO, Curve: curve, MinGPUs: 1,
		})
	}
	misses := func(now float64, cand *job.Job) (admitted bool, m uint64) {
		ResetPlanCacheStats()
		admitted = e.Admit(now, cand, active, 16)
		_, m = PlanCacheStats()
		return admitted, m
	}

	// Admitted, between the 3rd and 4th deadline: every job fills once.
	ok := &job.Job{ID: "ok", TotalIters: 100, Deadline: 1 + 1e4 + 250, Class: job.SLO, Curve: curve, MinGPUs: 1}
	if admitted, m := misses(1, ok); !admitted || m != n+1 {
		t.Errorf("admitted candidate: admitted=%v fills=%d, want true and %d", admitted, m, n+1)
	}

	// Infeasible on its own (far too much work), at position k = 3: the jobs
	// behind it are never filled.
	const k = 3
	big := &job.Job{ID: "big", TotalIters: 1e9, Deadline: 2 + 1e4 + 250, Class: job.SLO, Curve: curve, MinGPUs: 1}
	if admitted, m := misses(2, big); admitted || m > k+1 {
		t.Errorf("infeasible candidate at position %d: admitted=%v fills=%d, want false and at most %d", k, admitted, m, k+1)
	}

	// Its counter-offer search, same timestamp: every probe resumes from a
	// cached fold, and an infeasible probe costs the candidate's fill alone.
	ResetPlanCacheStats()
	if _, found := e.EarliestDeadline(2, big, active, 16); found {
		t.Error("a job no horizon fits got a counter-offer")
	}
	if _, m := PlanCacheStats(); m != n-k+1 {
		t.Errorf("counter-offer probe at the horizon: %d fills, want the %d jobs past the cached prefix plus the candidate", m, n-k)
	}

	// Demoted jobs behind the candidate (far too much work, one GPU each, so
	// their recovery plans leave the others room), interleaved with the
	// tail: the verdict is one fold with the candidate to the end plus one
	// fold without it, from the shared prefix up to the last demoted job.
	const demoted = 3
	withDemoted := append([]*job.Job(nil), active...)
	for i := 0; i < demoted; i++ {
		withDemoted = append(withDemoted, &job.Job{
			ID: fmt.Sprintf("d%d", i), TotalIters: 1e9, Deadline: 1e4 + 350 + float64(i)*200,
			Class: job.SLO, Curve: curve, MinGPUs: 1, MaxGPUs: 1,
		})
	}
	ResetPlanCacheStats()
	ok3 := &job.Job{ID: "ok3", TotalIters: 100, Deadline: 3 + 1e4 + 250, Class: job.SLO, Curve: curve, MinGPUs: 1}
	if !e.Admit(3, ok3, withDemoted, 16) {
		t.Fatal("a candidate that leaves every satisfiable job satisfied was refused")
	}
	total := n + demoted
	if _, m := PlanCacheStats(); m > uint64(total+1+total-k) {
		t.Errorf("verdict with %d demoted jobs behind the candidate: %d fills, want at most %d (the fold with the candidate) + %d (one fold without it)",
			demoted, m, total+1, total-k)
	}

	// A counter-offer at a fresh instant, answered where the candidate first
	// fits: the fold without the candidate from the refusal's position k0 on
	// plus the candidate at the horizon, one Fill per bracket walked, a
	// bisection inside the bracket that fits, and the verdict there from its
	// position k* on.
	const now = 4.0
	var spread []*job.Job
	for i := 0; i < n; i++ {
		spread = append(spread, &job.Job{
			ID: fmt.Sprintf("s%d", i), TotalIters: 100, Deadline: now + 600*float64(i+1),
			Class: job.SLO, Curve: curve, MinGPUs: 1,
		})
	}
	late := &job.Job{ID: "late", TotalIters: 3600, Deadline: now + 700, Class: job.SLO, Curve: curve, MinGPUs: 1, MaxGPUs: 8}
	ba := e.BeginAdmitBatch(now, 16)
	if ba.Admit(late, spread) {
		t.Fatal("a job that needs 30 slots was admitted with 11")
	}
	ResetPlanCacheStats()
	dl, found := ba.EarliestDeadline(late, spread)
	_, m := PlanCacheStats()
	if msg := offerMismatch(e, now, late, spread, 16, dl, found); msg != "" {
		t.Fatal(msg)
	}
	slo, _ := splitJobs(spread)
	at := func(slot int) *job.Job {
		c := *late
		c.Deadline = now + e.rescaleMargin(late) + float64(slot+1)*e.opts.SlotSec
		return &c
	}
	pos := func(slot int) int { return position(slo, at(slot)) }
	lo := e.demand(late, now).DeadlineSlot
	fit := int(math.Round((dl-now-e.rescaleMargin(late))/e.opts.SlotSec)) - 1
	if v := twoPassVerdict(e, now, at(fit-1), spread, 16); v.reason != "candidate-infeasible" {
		t.Fatalf("offer at slot %d, but the candidate alone fits a slot earlier (%+v): the case no longer tests an offer answered where it first fits", fit, v)
	}
	k0, kFit := pos(lo), pos(fit)
	brackets, width := map[int]bool{}, 0
	for slot := lo; pos(slot) <= kFit; slot++ {
		brackets[pos(slot)] = true
		if pos(slot) == kFit {
			width++
		}
	}
	want := (n - k0 + 1) + len(brackets) + bits.Len(uint(width-1)) + (n - kFit + 1)
	if m > uint64(want) || len(brackets) < 2 {
		t.Errorf("counter-offer at slot %d (refused at %d, positions %d..%d over %d brackets, the last %d slots wide): %d fills, want at most %d",
			fit, lo, k0, kFit, len(brackets), width, m, want)
	}
}
