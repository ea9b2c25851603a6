package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"
	"unsafe"

	"github.com/elasticflow/elasticflow/internal/job"
	"github.com/elasticflow/elasticflow/internal/plan"
	"github.com/elasticflow/elasticflow/internal/throughput"
)

// heldPlans is one Plans() result kept past its instant, beside the deep copy
// taken the moment it was returned.
type heldPlans struct {
	step      int
	got, want map[string]plan.Allocation
}

func deepCopyPlans(m map[string]plan.Allocation) map[string]plan.Allocation {
	out := make(map[string]plan.Allocation, len(m))
	for id, a := range m {
		a.Levels = append([]plan.Run(nil), a.Levels...)
		out[id] = a
	}
	return out
}

// intact reports whether the held result still equals its copy (the plans are
// hundreds of slots long and there are tens of thousands of them, which is
// too much for reflect.DeepEqual under the race detector).
func (h heldPlans) intact() bool {
	if len(h.got) != len(h.want) {
		return false
	}
	for id, w := range h.want {
		g, ok := h.got[id]
		if !ok || !slices.Equal(g.Levels, w.Levels) || g.Satisfied != w.Satisfied || g.FinishSlot != w.FinishSlot ||
			math.Float64bits(g.FinishFrac) != math.Float64bits(w.FinishFrac) || math.Float64bits(g.GPUTime) != math.Float64bits(w.GPUTime) {
			return false
		}
	}
	return true
}

// levelsDigest stands in for a plan's levels in the transcript: their count
// and an order-sensitive hash.
func levelsDigest(levels []int) string {
	h := uint64(14695981039346656037)
	for _, x := range levels {
		h = (h ^ uint64(x)) * 1099511628211
	}
	return fmt.Sprintf("%d:%016x", len(levels), h)
}

// storageScript drives e through a 300-event scripted run — batches of
// arrivals at one instant, each refusal followed by its counter-offer search
// (dozens of passes at that instant), progress, rescale charges, completions,
// capacity changes with InvalidatePlanCache, time moving on — and renders
// every verdict (reason, victim, the mss plan), counter-offer, Schedule
// decision and Plans() result into a transcript. Every Plans() result is held
// on to and must still equal its own deep copy 100 events later and at the
// end: whatever the scheduler reuses between instants, what it returned is
// the caller's.
func storageScript(t *testing.T, e *ElasticFlow, seed int64) string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var out []byte
	emit := func(format string, args ...interface{}) {
		out = append(out, fmt.Sprintf(format, args...)...)
		out = append(out, '\n')
	}
	var active []*job.Job
	var held []heldPlans
	check := func(step int, all bool) {
		for len(held) > 0 && (all || held[0].step+100 <= step) {
			if h := held[0]; !h.intact() {
				t.Fatalf("seed %d: the Plans() result of event %d changed by event %d:\n got  %v\n want %v", seed, h.step, step, h.got, h.want)
			}
			held = held[1:]
		}
	}
	now, g, nextID, offers := 0.0, 16, 0, 0
	for step := 0; step < 300; step++ {
		switch rng.Intn(6) {
		case 0, 1, 2: // a batch of arrivals decided at one instant
			for c := 1 + rng.Intn(3); c > 0; c-- {
				nextID++
				cand := randomSLOJob(rng, fmt.Sprintf("j%03d", nextID), now)
				if rng.Intn(4) == 0 {
					cand.TotalIters *= 6 // too much work for its deadline: a refusal
				}
				if rng.Intn(8) == 0 {
					cand.Class, cand.Deadline = job.BestEffort, math.Inf(1)
				}
				slo, _ := splitJobs(active)
				if cand.Class == job.SLO {
					v := e.verdict(now, cand, slo, e.admitCapacity(g))
					emit("verdict %s ok=%v reason=%s victim=%s mss=%s fin=%d frac=%v", cand.ID, v.ok, v.reason, v.victim, levelsDigest(v.mss.PerSlot()), v.mss.FinishSlot, v.mss.FinishFrac)
				}
				ok := e.Admit(now, cand, active, g)
				emit("admit %s -> %v", cand.ID, ok)
				if ok {
					active = append(active, cand)
					continue
				}
				dl, found := e.CounterOffer(now, cand, active, g)
				emit("offer %s %v %v", cand.ID, dl, found)
				offers++
			}
		case 3: // progress, sometimes with a rescale charged
			if len(active) > 0 {
				j := active[rng.Intn(len(active))]
				j.DoneIters += rng.Float64() * 40
				if rng.Intn(3) == 0 {
					j.Rescales++
				}
			}
		case 4: // completion
			if len(active) > 0 {
				i := rng.Intn(len(active))
				emit("complete %s", active[i].ID)
				active = append(active[:i], active[i+1:]...)
			}
		case 5: // node event
			g = 8 + rng.Intn(3)*8
			e.InvalidatePlanCache()
			emit("capacity %d", g)
		}
		dec := e.Schedule(now, active, g)
		plans := e.Plans(now, active, g)
		held = append(held, heldPlans{step: step, got: plans, want: deepCopyPlans(plans)})
		ids := make([]string, 0, len(plans))
		for id := range plans {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			p := plans[id]
			emit("plan %s alloc=%d levels=%s fin=%d frac=%v gputime=%v sat=%v", id, dec.Alloc[id], levelsDigest(p.PerSlot()), p.FinishSlot, p.FinishFrac, p.GPUTime, p.Satisfied)
		}
		emit("wake %v", dec.Wake)
		check(step, false)
		if rng.Intn(3) > 0 {
			now += float64(rng.Intn(240))
		}
	}
	check(300, true)
	if offers < 20 {
		t.Fatalf("seed %d: only %d counter-offer searches in the script", seed, offers)
	}
	return string(out)
}

// withBlock shrinks the scheduler's block to n runs before its first pass.
func withBlock(e *ElasticFlow, n int) *ElasticFlow {
	e.filler.Arena = plan.NewArena(n)
	return e
}

// TestStorageNeverChangesADecision holds the three places a plan can live
// equal: the scheduler's block, the heap behind a block too small for any
// instant (16 runs, 128 bytes, so every pass overflows), and the heap alone
// (DisablePlanCache, no block, fresh records every pass).
func TestStorageNeverChangesADecision(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		// The second seed runs the unit-increment ablation. A one-day horizon
		// keeps the cache-less reference's counter-offer searches short.
		opts := Options{PowerOfTwo: seed == 1, HorizonSlots: 1440}
		cold := opts
		cold.DisablePlanCache = true
		want := storageScript(t, New(cold), seed)
		if got := storageScript(t, New(opts), seed); got != want {
			t.Fatalf("seed %d: block-backed and cache-less transcripts differ%s", seed, firstDiff(got, want))
		}
		if got := storageScript(t, withBlock(New(opts), 16), seed); got != want {
			t.Fatalf("seed %d: overflowing-block and cache-less transcripts differ%s", seed, firstDiff(got, want))
		}
	}
}

func firstDiff(got, want string) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	return fmt.Sprintf(" at byte %d:\n got  …%q\n want …%q", i, got[max(i-200, 0):min(i+200, len(got))], want[max(i-200, 0):min(i+200, len(want))])
}

// TestSchedulersShareNothing runs two schedulers from two goroutines (under
// -race in CI): a block, record pool or walk buffer shared at package level
// would be a data race here, and would corrupt one run's plans with the
// other's even where the detector is off.
func TestSchedulersShareNothing(t *testing.T) {
	want := [2]string{
		storageScript(t, New(Options{PowerOfTwo: true}), 11),
		storageScript(t, New(Options{PowerOfTwo: true}), 12),
	}
	var got [2]string
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = storageScript(t, New(Options{PowerOfTwo: true}), int64(11+i))
		}(i)
	}
	wg.Wait()
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("scheduler %d decided differently beside a concurrent one%s", i, firstDiff(got[i], want[i]))
		}
	}
}

var budgetCurve = throughput.MustCurve(map[int]float64{1: 1, 2: 1.8, 4: 3.1, 8: 4.8, 16: 6.2})

// budgetJob is job i of a mixed-horizon set: between a quarter of an hour and
// five hours of single-GPU work, due in two to six times that.
func budgetJob(i int, now float64) *job.Job {
	work := 900 + float64(i*7919%17100)
	return &job.Job{
		ID:         fmt.Sprintf("b%04d", i),
		TotalIters: work,
		SubmitTime: now,
		Deadline:   now + work*float64(2+i%5),
		Class:      job.SLO,
		Curve:      budgetCurve,
		MinGPUs:    1,
		MaxGPUs:    16,
	}
}

// TestDecisionAllocationBudget pins what one event costs the collector once
// the scheduler is warm: an Admit plus a Schedule at a fresh now over 200
// active jobs — every plan refilled, the jobs behind the candidate twice,
// 31 000 slots of plans per pass plus their snapshots — allocates under 96 KB,
// because plans live in the block and records, fingerprints and queue entries
// in buffers the scheduler reuses. It measures 18 KB (the decision map and
// the sorted job slices); before the block the same event allocated 1.19 MB.
func TestDecisionAllocationBudget(t *testing.T) {
	const n, g = 200, 512
	e := New(Options{PowerOfTwo: true})
	active := make([]*job.Job, n)
	for i := range active {
		active[i] = budgetJob(i, 0)
	}
	now := 0.0
	event := func() {
		now += 60
		cand := budgetJob(n+int(now/60), now)
		if !e.Admit(now, cand, active, g) {
			t.Fatalf("candidate refused at now=%v: the set no longer fits the cluster", now)
		}
		if dec := e.Schedule(now, active, g); len(dec.Alloc) != n {
			t.Fatalf("Schedule placed %d of %d jobs", len(dec.Alloc), n)
		}
	}
	for i := 0; i < 5; i++ {
		event() // warm-up: the grid, walk buffer, record arrays and queue reach their sizes
	}
	const events = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < events; i++ {
		event()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / events; per >= 96<<10 {
		t.Errorf("one Admit + Schedule at a fresh now over %d jobs allocated %d bytes, budget %d", n, per, 96<<10)
	}
}

// TestSchedulerRetention pins what a scheduler keeps between events after a
// long run at a large active set: the one block it started with, at most
// two dropped passes, and record, fingerprint and queue buffers no
// larger than 1.25× the active set. (Spare arrays with append's 2× headroom,
// four of them per shard, were 8 MB of efserver's peak RSS.)
func TestSchedulerRetention(t *testing.T) {
	const n, g, events = 2000, 8192, 1000
	e := New(Options{PowerOfTwo: true})
	// A few slots of work each, and deadlines in arrival order so the
	// per-event sorts see sorted input: the test is about what is retained,
	// not about fills or sorting.
	small := func(i int, now float64) *job.Job {
		j := budgetJob(i, now)
		j.TotalIters = 120 + float64(i%7)*60
		j.Deadline = now + 3600 + float64(i)
		return j
	}
	var active []*job.Job
	now := 0.0
	for i := 0; i < n; i++ {
		active = append(active, small(i, now))
	}
	e.Schedule(now, active, g)
	block := e.filler.Arena
	if block == nil || block.Cap() != blockRuns || blockRuns*unsafe.Sizeof(plan.Run{}) != 1<<20 {
		t.Fatalf("after the first pass the scheduler holds block %v, want one of %d runs, 1 MiB", block, blockRuns)
	}
	for ev := 0; ev < events; ev++ {
		if ev%4 == 0 {
			now += 60
		}
		// One job completes, one arrives: the set stays at n.
		active = append(active[:ev%n], active[ev%n+1:]...)
		cand := small(n+ev, now)
		if !e.Admit(now, cand, active, g) {
			t.Fatalf("event %d: arrival refused", ev)
		}
		active = append(active, cand)
		if ev%50 == 0 {
			refused := small(3*n+ev, now)
			refused.TotalIters = 1e9
			if e.Admit(now, refused, active, g) {
				t.Fatalf("event %d: an impossible job was admitted", ev)
			}
			e.CounterOffer(now, refused, active, g) // dozens of passes at this instant
		}
		e.Schedule(now, active, g)
	}
	if e.filler.Arena != block || block.Cap() != blockRuns {
		t.Errorf("the scheduler replaced or resized its block")
	}
	if len(e.spare) > 2 {
		t.Errorf("%d spare passes retained, want at most 2", len(e.spare))
	}
	limit := n + n/4
	sizes := map[string]int{"fingerprints": cap(e.fps), "queue entries": cap(e.jobs), "queue heap": cap(e.queue)}
	for i, s := range e.spare {
		sizes[fmt.Sprintf("spare pass %d records", i)] = cap(s.recs)
	}
	for i, s := range e.states {
		if s != nil {
			sizes[fmt.Sprintf("cached pass %d records", i)] = cap(s.recs)
		}
	}
	for what, c := range sizes {
		if c > limit {
			t.Errorf("%s: capacity %d for %d active jobs, want at most %d", what, c, n, limit)
		}
	}
}

// TestFingerprintCoversEveryInput flips each field the fill reads, one at a
// time: the fingerprint must move, or a cached pass would serve a job whose
// plan has changed.
func TestFingerprintCoversEveryInput(t *testing.T) {
	base := func() *job.Job {
		return &job.Job{
			ID: "fp", Class: job.SLO, Deadline: 7200, SubmitTime: 10, TotalIters: 5000, DoneIters: 100,
			RescaleOverheadSec: 10, MigrateOverheadSec: 25, CheckpointBytes: 1 << 30,
			MinGPUs: 1, MaxGPUs: 16, Rescales: 2, Curve: budgetCurve,
		}
	}
	want := fingerprintJob(base(), fillSLO)
	if got := fingerprintJob(base(), fillSLO); got != want {
		t.Fatalf("equal jobs fingerprint differently: %x vs %x", got, want)
	}
	for name, flip := range map[string]func(*job.Job){
		"Class":              func(j *job.Job) { j.Class = job.SoftDeadline },
		"Deadline":           func(j *job.Job) { j.Deadline = math.Nextafter(j.Deadline, math.Inf(1)) },
		"SubmitTime":         func(j *job.Job) { j.SubmitTime++ },
		"TotalIters":         func(j *job.Job) { j.TotalIters++ },
		"DoneIters":          func(j *job.Job) { j.DoneIters = math.Nextafter(j.DoneIters, 0) },
		"RescaleOverheadSec": func(j *job.Job) { j.RescaleOverheadSec++ },
		"MigrateOverheadSec": func(j *job.Job) { j.MigrateOverheadSec++ },
		"CheckpointBytes":    func(j *job.Job) { j.CheckpointBytes++ },
		"MinGPUs":            func(j *job.Job) { j.MinGPUs = 2 },
		"MaxGPUs":            func(j *job.Job) { j.MaxGPUs = 8 },
		"Rescales":           func(j *job.Job) { j.Rescales++ },
		"Curve":              func(j *job.Job) { j.Curve = verdictCurves[0] },
		// Two fields trading values must not cancel out.
		"MinGPUs<->MaxGPUs": func(j *job.Job) { j.MinGPUs, j.MaxGPUs = j.MaxGPUs, j.MinGPUs },
	} {
		j := base()
		flip(j)
		if got := fingerprintJob(j, fillSLO); got == want {
			t.Errorf("flipping %s leaves the fingerprint at %x", name, got)
		}
	}
	if got := fingerprintJob(base(), fillBE); got == want {
		t.Errorf("the fill mode is not in the fingerprint (%x)", got)
	}
	// The ID is not hashed: matchPrefix compares it directly.
	other := base()
	other.ID = "other"
	e := New(Options{PowerOfTwo: true})
	e.Schedule(0, []*job.Job{base()}, 16)
	ResetPlanCacheStats()
	e.Schedule(0, []*job.Job{other}, 16)
	if hits, misses := PlanCacheStats(); hits != 0 || misses != 1 {
		t.Errorf("a job with another ID and equal fields was served from the cache: hits=%d misses=%d", hits, misses)
	}
}
