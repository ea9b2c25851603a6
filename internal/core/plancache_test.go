package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/elasticflow/elasticflow/internal/job"
	"github.com/elasticflow/elasticflow/internal/throughput"
)

// renderDecisions drives a scheduler through a scripted-but-randomized
// workload — arrivals, admissions, progress advances, rescale charges,
// completions, capacity changes, earliest-deadline probes — and renders
// every observable decision into one deterministic transcript string.
func renderDecisions(e *ElasticFlow, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	curves := []throughput.Curve{
		throughput.MustCurve(map[int]float64{1: 1, 2: 1.5, 4: 2}),
		throughput.MustCurve(map[int]float64{1: 1, 2: 1.8, 4: 3, 8: 4.5}),
		throughput.MustCurve(map[int]float64{1: 1, 2: 1.1, 4: 1.15}),
	}
	var out []byte
	emit := func(format string, args ...interface{}) {
		out = append(out, fmt.Sprintf(format, args...)...)
		out = append(out, '\n')
	}

	var active []*job.Job
	now := 0.0
	g := 16
	nextID := 0
	for step := 0; step < 120; step++ {
		switch rng.Intn(6) {
		case 0, 1: // arrival + admission decision
			nextID++
			j := &job.Job{
				ID:                 fmt.Sprintf("j%03d", nextID),
				TotalIters:         50 + rng.Float64()*500,
				SubmitTime:         now,
				Deadline:           now + 120 + rng.Float64()*3000,
				Class:              job.SLO,
				Curve:              curves[rng.Intn(len(curves))],
				MinGPUs:            1,
				RescaleOverheadSec: 10,
			}
			if rng.Intn(4) == 0 {
				j.Class = job.BestEffort
				j.Deadline = math.Inf(1)
			}
			ok := e.Admit(now, j, active, g)
			emit("admit %s -> %v", j.ID, ok)
			if ok {
				active = append(active, j)
			}
		case 2: // progress advance on a random job
			if len(active) > 0 {
				j := active[rng.Intn(len(active))]
				j.DoneIters += rng.Float64() * 40
				if rng.Intn(3) == 0 {
					j.Rescales++
				}
			}
		case 3: // completion
			if len(active) > 0 {
				i := rng.Intn(len(active))
				emit("complete %s", active[i].ID)
				active = append(active[:i], active[i+1:]...)
			}
		case 4: // capacity change (node event) — engines also invalidate
			g = 8 + rng.Intn(3)*8
			e.InvalidatePlanCache()
			emit("capacity %d", g)
		case 5: // earliest-deadline probe for a hypothetical job
			c := &job.Job{
				ID:                 "probe",
				TotalIters:         200,
				SubmitTime:         now,
				Deadline:           now + 60,
				Class:              job.SLO,
				Curve:              curves[rng.Intn(len(curves))],
				MinGPUs:            1,
				RescaleOverheadSec: 10,
			}
			d, ok := e.EarliestDeadline(now, c, active, g)
			emit("earliest %v %v", d, ok)
		}
		// Every step ends in a scheduling decision, like the sim's
		// admit-then-reschedule cadence.
		dec := e.Schedule(now, active, g)
		ids := make([]string, 0, len(dec.Alloc))
		for id := range dec.Alloc {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			emit("alloc %s=%d", id, dec.Alloc[id])
		}
		emit("wake %v", dec.Wake)
		plans := e.Plans(now, active, g)
		pids := make([]string, 0, len(plans))
		for id := range plans {
			pids = append(pids, id)
		}
		sort.Strings(pids)
		for _, id := range pids {
			p := plans[id]
			emit("plan %s levels=%v fin=%d frac=%v gputime=%v sat=%v",
				id, p.Levels, p.FinishSlot, p.FinishFrac, p.GPUTime, p.Satisfied)
		}
		if rng.Intn(2) == 0 {
			now += float64(rng.Intn(240))
		}
	}
	return string(out)
}

// TestPlanCacheDeterminism is the golden cross-check of the tentpole: the
// cached scheduler and a from-scratch scheduler must produce byte-identical
// decision transcripts over randomized evolving workloads — admissions,
// allocations, full plans (levels, fractional finishes, GPU times), wake-ups
// and earliest-deadline offers all included.
func TestPlanCacheDeterminism(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		cached := New(Options{PowerOfTwo: true})
		cold := New(Options{PowerOfTwo: true, DisablePlanCache: true})
		got := renderDecisions(cached, seed)
		want := renderDecisions(cold, seed)
		if got != want {
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			lo := i - 200
			if lo < 0 {
				lo = 0
			}
			t.Fatalf("seed %d: cached and from-scratch transcripts diverge at byte %d:\ncached: …%q\ncold:   …%q",
				seed, i, got[lo:min(i+200, len(got))], want[lo:min(i+200, len(want))])
		}
	}
}

// TestPlanCacheDeterminismUnitMode repeats the cross-check in the
// unit-increment ablation (PowerOfTwo=false), whose fills exercise different
// level sequences and clamping.
func TestPlanCacheDeterminismUnitMode(t *testing.T) {
	cached := New(Options{PowerOfTwo: false})
	cold := New(Options{PowerOfTwo: false, DisablePlanCache: true})
	if got, want := renderDecisions(cached, 42), renderDecisions(cold, 42); got != want {
		t.Fatal("unit-mode cached and from-scratch transcripts diverge")
	}
}

// TestPlanCacheHitsSteadyState asserts the cache actually engages: repeated
// Schedule calls with unchanged jobs must be (near-)pure hits after the
// first, and an admission must resume from the cached pass and refill only
// the jobs behind the candidate.
func TestPlanCacheHitsSteadyState(t *testing.T) {
	e := New(Options{PowerOfTwo: true})
	curve := throughput.MustCurve(map[int]float64{1: 1, 2: 1.5, 4: 2})
	var active []*job.Job
	for i := 0; i < 6; i++ {
		active = append(active, &job.Job{
			ID:         fmt.Sprintf("s%d", i),
			TotalIters: 100,
			Deadline:   1e4 + float64(i)*100,
			Class:      job.SLO,
			Curve:      curve,
			MinGPUs:    1,
		})
	}
	e.Schedule(0, active, 16) // warm
	ResetPlanCacheStats()
	for i := 0; i < 10; i++ {
		e.Schedule(0, active, 16)
	}
	hits, misses := PlanCacheStats()
	if misses != 0 || hits != 60 {
		t.Errorf("steady-state Schedule: hits=%d misses=%d, want 60/0", hits, misses)
	}

	// One fold per verdict: a candidate whose deadline falls between the 3rd
	// and 4th job's reuses the three fills ahead of it, then fills itself and
	// the three jobs behind it. (The eager two-pass admit read hits=9 misses=4
	// here: a full-hit pass without the candidate ran first, every time.)
	cand := &job.Job{ID: "cand", TotalIters: 100, Deadline: 1e4 + 250, Class: job.SLO, Curve: curve, MinGPUs: 1}
	ResetPlanCacheStats()
	if !e.Admit(0, cand, active, 16) {
		t.Fatal("candidate rejected on an almost empty cluster")
	}
	hits, misses = PlanCacheStats()
	if hits != 3 || misses != 4 {
		t.Errorf("Admit behind 3 cached jobs: hits=%d misses=%d, want 3/4", hits, misses)
	}

	// A progress advance on the job with the 3rd-earliest deadline keeps a
	// 2-job prefix hot and refills the rest.
	active[2].DoneIters = 10
	ResetPlanCacheStats()
	e.Schedule(0, active, 16)
	hits, misses = PlanCacheStats()
	if hits != 2 || misses != 4 {
		t.Errorf("after advancing job 2: hits=%d misses=%d, want 2/4", hits, misses)
	}

	// InvalidatePlanCache forces a full recompute.
	e.InvalidatePlanCache()
	ResetPlanCacheStats()
	e.Schedule(0, active, 16)
	hits, misses = PlanCacheStats()
	if hits != 0 || misses != 6 {
		t.Errorf("after invalidation: hits=%d misses=%d, want 0/6", hits, misses)
	}
}
