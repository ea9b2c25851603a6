package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/elasticflow/elasticflow/internal/job"
	"github.com/elasticflow/elasticflow/internal/plan"
	"github.com/elasticflow/elasticflow/internal/throughput"
)

// twoPassVerdict is Algorithm 1 as first written, kept as the reference the
// verdict-driven routine must agree with: fill every active SLO job in
// deadline order without the candidate, fill them all again with it, then
// compare the two outcomes job by job. No cache, no early exit.
func twoPassVerdict(e *ElasticFlow, now float64, cand *job.Job, active []*job.Job, g int) admitVerdict {
	g = e.admitCapacity(g)
	pass := func(jobs []*job.Job) (map[string]bool, plan.Allocation) {
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
	okWithout, _ := pass(active)
	okWith, mss := pass(append(append([]*job.Job(nil), active...), cand))
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

// checkCounterOffer checks the batch's counter-offer for a candidate it just
// refused: the offered deadline is admissible by the reference, it is not
// earlier than the refused deadline's slot (where the search now starts), and
// unless it sits on that slot the deadline one slot earlier is refused. With
// demoted jobs in the active set feasibility is not strictly monotone in the
// deadline, so a search from slot zero may legitimately land elsewhere; the
// boundary property is what a counter-offer promises.
func checkCounterOffer(t *testing.T, e *ElasticFlow, ba *AdmitBatch, now float64, cand *job.Job, active []*job.Job, g int) {
	t.Helper()
	dl, ok := ba.EarliestDeadline(cand, active)
	at := func(deadline float64) admitVerdict {
		c := *cand
		c.Deadline = deadline
		return twoPassVerdict(e, now, &c, active, g)
	}
	if !ok {
		horizon := now + e.rescaleMargin(cand) + float64(e.opts.HorizonSlots+1)*e.opts.SlotSec
		if v := at(horizon); v.ok {
			t.Fatalf("%s: no counter-offer although the horizon deadline is admissible", cand.ID)
		}
		return
	}
	if v := at(dl); !v.ok {
		t.Fatalf("%s: offered deadline %v is not admissible: %+v", cand.ID, dl, v)
	}
	refused := e.demand(cand, now).DeadlineSlot
	slot := int(math.Round((dl-now-e.rescaleMargin(cand))/e.opts.SlotSec)) - 1
	switch {
	case slot < refused:
		t.Fatalf("%s: offer at slot %d is earlier than the refused deadline's slot %d", cand.ID, slot, refused)
	case slot > refused:
		if v := at(dl - e.opts.SlotSec); v.ok {
			t.Fatalf("%s: offer at slot %d but slot %d is admissible too", cand.ID, slot, slot-1)
		}
	}
}

// TestAdmitFillCounts pins what a verdict costs at a timestamp nothing is
// cached for: one fill per active job plus the candidate's when it is
// admitted, and only the fills up to and including the candidate's own when
// it is infeasible at position k of the deadline order.
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
}
