package plan

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"github.com/elasticflow/elasticflow/internal/throughput"
)

// fig4Curve is the scaling curve of the paper's Fig. 4 example: throughput
// 1, 1.5 and 2 units with one, two and four GPUs.
func fig4Curve() throughput.Curve {
	return throughput.MustCurve(map[int]float64{1: 1, 2: 1.5, 4: 2})
}

// dense is the plan with the given per-slot levels.
func dense(levels ...int) Allocation { return Allocation{Levels: runsOf(nil, levels)} }

// canonical returns "" when runs is a plan's canonical form — every run
// non-empty and holding a level ≥ 0, each starting where the previous ended,
// no two neighbours at one level — and what is wrong otherwise.
func canonical(runs []Run) string {
	end := int32(0)
	for i, r := range runs {
		switch {
		case r.End <= end:
			return fmt.Sprintf("run %d of %v is empty", i, runs)
		case r.Level < 0:
			return fmt.Sprintf("run %d of %v has a negative level", i, runs)
		case i > 0 && r.Level == runs[i-1].Level:
			return fmt.Sprintf("runs %d and %d of %v hold one level", i-1, i, runs)
		}
		end = r.End
	}
	return ""
}

// matchesDense returns "" when a is what a dense oracle computed — want's
// accounting, identical to the bit, and per-slot levels levels — and what
// differs otherwise. a's runs must be canonical and expand to levels, nil
// exactly when levels is, so their last End is the oracle's length.
func matchesDense(a, want Allocation, levels []int) string {
	if err := canonical(a.Levels); err != "" {
		return err
	}
	if got := a.PerSlot(); !reflect.DeepEqual(got, levels) {
		return fmt.Sprintf("levels %v (runs %v), want %v", got, a.Levels, levels)
	}
	a.Levels, want.Levels = nil, nil
	if !reflect.DeepEqual(a, want) {
		return fmt.Sprintf("accounting %+v, want %+v", a, want)
	}
	return ""
}

// TestFig4AloneNeedsTwoGPUs reproduces Fig. 4(b): with an empty cluster of 4
// GPUs, job C (deadline 2 slots, 3 iterations) needs 2 GPUs per slot and
// consumes 4 units of GPU time.
func TestFig4AloneNeedsTwoGPUs(t *testing.T) {
	f := NewFiller(4, 1, true)
	a := f.Fill(Demand{Curve: fig4Curve(), Remaining: 3, DeadlineSlot: 2, MinGPUs: 1})
	if !a.Satisfied {
		t.Fatalf("job C not satisfied: %+v", a)
	}
	if lv := a.PerSlot(); lv[0] != 2 || lv[1] != 2 {
		t.Errorf("levels = %v want [2 2]", lv)
	}
	if a.GPUTime != 4 {
		t.Errorf("GPU time = %v want 4 (paper Fig. 4(b))", a.GPUTime)
	}
}

// TestFig4WithContention reproduces Fig. 4(c): with jobs A and B occupying 3
// of the 4 GPUs in slot 0, job C needs level j=4 — 1 GPU in slot 0 and 4 in
// slot 1 — consuming 5 units of GPU time.
func TestFig4WithContention(t *testing.T) {
	f := NewFiller(4, 1, true)
	// Jobs A and B: 3 GPUs in slot 0.
	f.Commit(dense(3))
	a := f.Fill(Demand{Curve: fig4Curve(), Remaining: 3, DeadlineSlot: 2, MinGPUs: 1})
	if !a.Satisfied {
		t.Fatalf("job C not satisfied: %+v", a)
	}
	if lv := a.PerSlot(); lv[0] != 1 || lv[1] != 4 {
		t.Errorf("levels = %v want [1 4] (paper Fig. 4(c))", lv)
	}
	if a.GPUTime != 5 {
		t.Errorf("GPU time = %v want 5 (paper Fig. 4(c))", a.GPUTime)
	}
}

// TestFig4IntermediateLevelInsufficient checks the intermediate step of the
// §4.1 walk-through: with j=2 job C only reaches 2.5 < 3 iterations.
func TestFig4IntermediateLevelInsufficient(t *testing.T) {
	f := NewFiller(4, 1, true)
	f.Commit(dense(3))
	d := Demand{Curve: fig4Curve(), Remaining: 3, DeadlineSlot: 2, MinGPUs: 1, MaxGPUs: 2}
	a := f.Fill(d)
	if a.Satisfied {
		t.Fatalf("level ≤2 should not satisfy job C, got %+v", a)
	}
	if got := f.progress(d, a.PerSlot()); got != 2.5 {
		t.Errorf("progress at j=2 = %v want 2.5", got)
	}
}

// progress returns the iterations the levels achieve over the horizon.
func (f *Filler) progress(d Demand, levels []int) float64 {
	p := 0.0
	for _, x := range levels {
		p += d.Curve.At(x) * f.SlotDur
	}
	return p
}

func TestFillInfeasibleDeadline(t *testing.T) {
	f := NewFiller(4, 1, true)
	a := f.Fill(Demand{Curve: fig4Curve(), Remaining: 10, DeadlineSlot: 2, MinGPUs: 1})
	if a.Satisfied {
		t.Error("infeasible demand satisfied")
	}
	// The fallback must be the maximal-progress plan.
	if lv := a.PerSlot(); lv[0] != 4 || lv[1] != 4 {
		t.Errorf("fallback levels = %v want [4 4]", lv)
	}
}

func TestFillZeroRemaining(t *testing.T) {
	f := NewFiller(4, 1, true)
	a := f.Fill(Demand{Curve: fig4Curve(), Remaining: 0, DeadlineSlot: 2, MinGPUs: 1})
	if !a.Satisfied {
		t.Error("zero remaining not satisfied")
	}
	if a.GPUTime != 0 {
		t.Errorf("GPU time = %v want 0", a.GPUTime)
	}
}

func TestFillRespectsMinGPUs(t *testing.T) {
	f := NewFiller(4, 1, true)
	// Slot 0 has only 1 free GPU but the job needs at least 2: it must
	// receive zero there, not a useless single GPU.
	f.Commit(dense(3))
	a := f.Fill(Demand{Curve: fig4Curve(), Remaining: 2, DeadlineSlot: 3, MinGPUs: 2})
	if lv := a.PerSlot(); lv[0] != 0 {
		t.Errorf("slot 0 = %d want 0 (below memory floor)", lv[0])
	}
	if !a.Satisfied {
		t.Error("job should be satisfiable from slot 1")
	}
}

func TestFillPowerOfTwoClamping(t *testing.T) {
	f := NewFiller(8, 1, true)
	// 3 GPUs free in slot 0: a power-of-two job must take 2, not 3.
	f.Commit(dense(5))
	a := f.Fill(Demand{Curve: throughput.MustCurve(map[int]float64{1: 1, 2: 1.9, 4: 3.5, 8: 6}), Remaining: 100, DeadlineSlot: 4, MinGPUs: 1})
	if lv := a.PerSlot(); lv[0] != 2 {
		t.Errorf("slot 0 = %d want 2 (power-of-two clamp of 3 free)", lv[0])
	}
}

func TestFillUnitModeUsesExactFree(t *testing.T) {
	f := NewFiller(8, 1, false)
	f.Commit(dense(5))
	a := f.Fill(Demand{Curve: throughput.MustCurve(map[int]float64{1: 1, 2: 1.9, 4: 3.5, 8: 6}), Remaining: 100, DeadlineSlot: 4, MinGPUs: 1})
	if lv := a.PerSlot(); lv[0] != 3 {
		t.Errorf("slot 0 = %d want 3 (unit mode uses all free GPUs)", lv[0])
	}
}

func TestFillFixedSlot0(t *testing.T) {
	f := NewFiller(4, 1, true)
	// Pin slot 0 to 4 GPUs; the filler chooses the rest.
	a := f.FillFixedSlot0(Demand{Curve: fig4Curve(), Remaining: 3, DeadlineSlot: 2, MinGPUs: 1}, 4)
	lv := a.PerSlot()
	if lv[0] != 4 {
		t.Errorf("slot 0 = %d want 4 (pinned)", lv[0])
	}
	if !a.Satisfied {
		t.Error("pinned fill unsatisfied")
	}
	// Slot 0 contributes 2 iterations, so slot 1 needs only level 1.
	if lv[1] != 1 {
		t.Errorf("slot 1 = %d want 1", lv[1])
	}
}

func TestCommitUncommitRoundTrip(t *testing.T) {
	f := NewFiller(4, 1, true)
	a := f.Fill(Demand{Curve: fig4Curve(), Remaining: 3, DeadlineSlot: 2, MinGPUs: 1})
	f.Commit(a)
	if f.UsedAt(0) != 2 || f.UsedAt(1) != 2 {
		t.Errorf("usage after commit = [%d %d] want [2 2]", f.UsedAt(0), f.UsedAt(1))
	}
	f.Uncommit(a)
	if f.TotalCommitted() != 0 {
		t.Errorf("usage after uncommit = %d want 0", f.TotalCommitted())
	}
}

func TestCommitOvercommitPanics(t *testing.T) {
	for _, tc := range []struct {
		name              string
		committed, commit Allocation
		want              string
	}{
		{"single slot", dense(2), dense(1), "plan: slot 0 overcommitted: 3 > 2"},
		// Commit checks a run once, after adding it over all its slots; the
		// message must still name the first slot that went over.
		{"middle of a run", dense(0, 1, 0, 2, 0, 2, 0), dense(0, 1, 1, 1, 1, 1, 1), "plan: slot 3 overcommitted: 3 > 2"},
	} {
		f := NewFiller(2, 1, true)
		f.Commit(tc.committed)
		if got := panicMessage(func() { f.Commit(tc.commit) }); got != tc.want {
			t.Errorf("%s: panic %q, want %q", tc.name, got, tc.want)
		}
	}
}

// panicMessage runs fn and returns what it panicked with, "" if it did not.
func panicMessage(fn func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	fn()
	return ""
}

func TestFinishAccounting(t *testing.T) {
	f := NewFiller(4, 1, true)
	// Minimal level is 1 GPU → 1 iter/slot; 2.5 remaining ⇒ finish mid
	// slot 2 with frac 0.5.
	a := f.Fill(Demand{Curve: fig4Curve(), Remaining: 2.5, DeadlineSlot: 4, MinGPUs: 1})
	if !a.Satisfied {
		t.Fatal("unsatisfied")
	}
	if a.FinishSlot != 2 {
		t.Errorf("FinishSlot=%d want 2", a.FinishSlot)
	}
	if a.FinishFrac < 0.49 || a.FinishFrac > 0.51 {
		t.Errorf("FinishFrac=%v want ≈0.5", a.FinishFrac)
	}
	if got := a.FinishTime(1); got < 2.49 || got > 2.51 {
		t.Errorf("FinishTime=%v want ≈2.5", got)
	}
	if a.GPUTime < 2.49 || a.GPUTime > 2.51 {
		t.Errorf("GPUTime=%v want ≈2.5", a.GPUTime)
	}
	// Slots after completion are trimmed.
	for tslot, x := range a.PerSlot() {
		if tslot >= 3 && x != 0 {
			t.Errorf("slot %d = %d want 0 after completion", tslot, x)
		}
	}
}

func TestFirstChangeSlot(t *testing.T) {
	for _, tc := range []struct {
		levels []int
		want   int
	}{
		{[]int{2, 2, 2}, 0},
		{[]int{1, 4}, 1},
		{[]int{2, 2, 0}, 2},
		{nil, 0},
	} {
		a := dense(tc.levels...)
		if got := a.FirstChangeSlot(); got != tc.want {
			t.Errorf("FirstChangeSlot(%v)=%d want %d", tc.levels, got, tc.want)
		}
	}
}

// TestFillMinimality: the level chosen by Fill is minimal — capping MaxGPUs
// one step below it must make the demand unsatisfiable.
func TestFillMinimality(t *testing.T) {
	curve := throughput.MustCurve(map[int]float64{1: 1, 2: 1.8, 4: 3, 8: 4.5})
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		f := NewFiller(8, 1, true)
		// Random background usage.
		bg := make([]int, 6)
		for t := range bg {
			bg[t] = rng.Intn(7)
		}
		f.Commit(dense(bg...))
		d := Demand{
			Curve:        curve,
			Remaining:    1 + rng.Float64()*20,
			DeadlineSlot: 1 + rng.Intn(6),
			MinGPUs:      1,
		}
		a := f.Fill(d)
		if !a.Satisfied {
			continue
		}
		// Find the level Fill effectively used: the max level granted.
		maxLevel := 0
		for _, x := range a.PerSlot() {
			if x > maxLevel {
				maxLevel = x
			}
		}
		if maxLevel <= 1 {
			continue
		}
		d2 := d
		d2.MaxGPUs = maxLevel / 2
		if a2 := f.Fill(d2); a2.Satisfied {
			t.Fatalf("trial %d: Fill used level %d but %d suffices (bg=%v, d=%+v)", trial, maxLevel, maxLevel/2, bg, d)
		}
	}
}

// TestFillNeverOvercommitsProperty: whatever the demand and background load,
// committing the result never exceeds capacity in any slot.
func TestFillNeverOvercommitsProperty(t *testing.T) {
	curve := throughput.MustCurve(map[int]float64{1: 1, 2: 1.7, 4: 2.8, 8: 4, 16: 5})
	fn := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		f := NewFiller(16, 1, rng.Intn(2) == 0)
		for k := 0; k < 8; k++ {
			d := Demand{
				Curve:        curve,
				Remaining:    rng.Float64() * 30,
				DeadlineSlot: rng.Intn(10),
				MinGPUs:      1 << rng.Intn(2),
			}
			a := f.Fill(d)
			f.Commit(a)
		}
		for tslot := 0; tslot < 12; tslot++ {
			if f.UsedAt(tslot) > f.G {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestFillSatisfiedImpliesDeadline: a satisfied allocation always finishes
// within the deadline horizon.
func TestFillSatisfiedImpliesDeadline(t *testing.T) {
	curve := throughput.MustCurve(map[int]float64{1: 2, 2: 3.4, 4: 5})
	fn := func(rem float64, dl uint8) bool {
		if rem < 0 {
			rem = -rem
		}
		rem = 1 + rem*0.001
		f := NewFiller(4, 1, true)
		d := Demand{Curve: curve, Remaining: rem, DeadlineSlot: int(dl % 20), MinGPUs: 1}
		a := f.Fill(d)
		if !a.Satisfied {
			return true
		}
		return a.FinishSlot < d.DeadlineSlot || (d.DeadlineSlot == 0 && rem <= 1e-9)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRaiseSlot0(t *testing.T) {
	f := NewFiller(4, 1, true)
	curve := fig4Curve()
	d := Demand{Curve: curve, Remaining: 4, DeadlineSlot: 8, MinGPUs: 1}
	cur := f.Fill(d) // level 1: [1,1,1,1]
	if cur.GPUsAt(0) != 1 || cur.FinishSlot != 3 {
		t.Fatalf("setup plan %+v", cur)
	}
	alt, ok := f.RaiseSlot0(d, cur, 2, f.FreeAt(0))
	if !ok || alt.Levels != nil {
		t.Fatalf("raise priced as %+v ok=%v, want accounting without levels", alt, ok)
	}
	f.Commit(cur)
	alt = f.Raise(cur, alt, 2)
	if alt.GPUsAt(0) != 2 {
		t.Fatalf("slot0=%d ok=%v want 2", alt.GPUsAt(0), ok)
	}
	// Tail stays at level 1; progress 1.5+1+1 = 3.5 then 0.5 into slot 3.
	if alt.GPUsAt(1) != 1 {
		t.Errorf("tail changed: %v", alt.PerSlot())
	}
	if !(alt.FinishTime(1) < cur.FinishTime(1)) {
		t.Errorf("raise did not finish earlier: %v vs %v", alt.FinishTime(1), cur.FinishTime(1))
	}
	if !alt.Satisfied {
		t.Error("raised plan unsatisfied")
	}
	// The grid followed the raise, and the plan it started from — shared
	// with whoever filled it — was left alone.
	if f.UsedAt(0) != 2 || f.UsedAt(1) != 1 || cur.GPUsAt(0) != 1 {
		t.Errorf("after the raise used=%v cur=%v, want slot 0 at 2 and cur untouched", f.used, cur.PerSlot())
	}
	f.Uncommit(alt)
	// A raise that does not fit the free capacity is no probe at all, and
	// neither is one to an infeasible worker count.
	f.Commit(dense(3))
	if alt2, ok := f.RaiseSlot0(d, cur, 4, f.FreeAt(0)); ok {
		t.Errorf("raise to 4 with 1 GPU free = %+v, want no probe", alt2)
	}
	if alt2, ok := f.RaiseSlot0(d, cur, 3, 4); ok {
		t.Errorf("raise to 3 in power-of-two mode = %+v, want no probe", alt2)
	}
	// cur's own committed share counts as free for its raise.
	f.Uncommit(dense(3))
	f.Commit(cur)
	if _, ok := f.RaiseSlot0(d, cur, 4, f.FreeAt(0)+cur.GPUsAt(0)); !ok {
		t.Error("raise of a committed plan to 4 refused with its own GPU plus 3 free")
	}
	// Empty current plan gets a single raised slot.
	empty := Allocation{}
	f2 := NewFiller(4, 1, true)
	alt3, ok := f2.RaiseSlot0(d, empty, 2, f2.FreeAt(0))
	alt3 = f2.Raise(empty, alt3, 2)
	if !ok || alt3.GPUsAt(0) != 2 || alt3.Slots() != 1 || f2.UsedAt(0) != 2 {
		t.Errorf("raise of empty plan = %+v, used %v", alt3, f2.used)
	}
}

// refRaiseSlot0 is RaiseSlot0 as it was before it walked runs of equal
// level, over the per-slot levels of the plan it prices: one pass over the
// slots with the throughput of the last level seen kept between them. It is
// the specification the run walk must match bit for bit.
func refRaiseSlot0(f *Filler, d Demand, levels []int, slot0, free0 int) (a Allocation, ok bool) {
	if slot0 > free0 || f.clampLevel(slot0, &d) != slot0 {
		return Allocation{}, false
	}
	n := max(len(levels), 1)
	a.FinishSlot = n
	progress, gpuTime := 0.0, 0.0
	// Plans are long runs of equal levels; look up the per-slot throughput
	// and GPU time once per run. Accumulation stays one addition per slot.
	lastLv := 0
	var delta, slotTime float64
	for t := 0; t < n; t++ {
		lv := slot0
		if t > 0 {
			lv = levels[t]
		}
		if lv == 0 {
			continue
		}
		if lv != lastLv {
			delta = d.Curve.At(lv) * f.SlotDur
			slotTime = float64(lv) * f.SlotDur
			lastLv = lv
		}
		if progress+delta >= d.Remaining-1e-9 {
			a.Satisfied = true
			a.FinishSlot = t
			a.FinishFrac = finishFrac(d.Remaining, progress, delta)
			gpuTime += float64(lv) * a.FinishFrac * f.SlotDur
			break
		}
		progress += delta
		gpuTime += slotTime
	}
	if !a.Satisfied {
		a.Satisfied = d.Remaining <= 1e-9
	}
	a.GPUTime = gpuTime
	return a, true
}

// TestRaiseSlot0MatchesSlotBySlot holds the run walk of RaiseSlot0 to the
// slot-by-slot reference over random plans with runs and zero levels, the
// empty plan, monotone and non-monotone curves, both allocation disciplines,
// raises that do not fit or are no feasible worker count, and demands whose
// Remaining sits on a finish boundary — exactly (and within the walk's 1e-9
// tolerance, and one rounding off) what the raised plan delivers through some
// slot. The priced Allocations must be identical to the bit.
func TestRaiseSlot0MatchesSlotBySlot(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	curves := []throughput.Curve{
		fig4Curve(),
		throughput.MustCurve(map[int]float64{1: 0.7, 2: 1.2, 4: 1.9, 8: 2.4, 16: 3, 32: 3.3}),
		throughput.MustCurve(map[int]float64{2: 1, 4: 1.3}),
		throughput.MustCurve(map[int]float64{1: 1, 2: 2.2, 4: 1.6, 8: 2.1, 16: 0.9}),
		throughput.MustCurve(map[int]float64{1: 1.5, 2: 1.1, 3: 1.4, 5: 0.8, 6: 1.45}),
	}
	boundary, finished, ran := 0, 0, 0
	for i := 0; i < 20000; i++ {
		g := 1 << rng.Intn(6)
		if rng.Intn(3) == 0 {
			g = 1 + rng.Intn(40)
		}
		f := NewFiller(g, 0.5+rng.Float64(), rng.Intn(2) == 0)
		levels := make([]int, rng.Intn(60)) // zero length: the empty plan
		for t := 0; t < len(levels); {
			lv := 0
			if rng.Intn(4) > 0 {
				lv = 1 + rng.Intn(g)
			}
			for end := t + 1 + rng.Intn(12); t < len(levels) && t < end; t++ {
				levels[t] = lv
			}
		}
		cur := dense(levels...)
		d := Demand{
			Curve:     curves[rng.Intn(len(curves))],
			Remaining: rng.Float64() * 60,
			MinGPUs:   1 + rng.Intn(2),
			MaxGPUs:   rng.Intn(2) * (1 + rng.Intn(g)),
		}
		slot0, free0 := rng.Intn(g+1), rng.Intn(g+1)
		if rng.Intn(3) > 0 {
			free0 = g // most probes fit
		}
		if rng.Intn(2) == 0 && len(levels) > 0 {
			// Remaining on the boundary of slot k: the raised plan's
			// progress through k, summed as the walk sums it.
			k, p := rng.Intn(len(levels)), 0.0
			for t := 0; t <= k; t++ {
				lv := levels[t]
				if t == 0 {
					lv = slot0
				}
				if lv > 0 {
					p += d.Curve.At(lv) * f.SlotDur
				}
			}
			d.Remaining = p + []float64{0, -1e-9, 1e-9, -2e-9, 2e-9, 1e-12}[rng.Intn(6)]
			if rng.Intn(4) == 0 {
				d.Remaining = math.Nextafter(d.Remaining, math.Inf(rng.Intn(2)*2-1))
			}
			boundary++
		}
		want, wok := refRaiseSlot0(f, d, levels, slot0, free0)
		got, ok := f.RaiseSlot0(d, cur, slot0, free0)
		if ok != wok || !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: levels=%v slot0=%d free0=%d G=%d pow2=%v slotDur=%v d=%+v\n got  %+v %v\n want %+v %v",
				i, levels, slot0, free0, g, f.PowerOfTwo, f.SlotDur, d, got, ok, want, wok)
		}
		if ok {
			ran++
			if got.Satisfied && got.FinishSlot < len(levels) {
				finished++
			}
		}
	}
	if boundary < 5000 || ran < 8000 || finished < 3000 {
		t.Errorf("generator covers too little: %d boundary demands, %d priced raises, %d finishing inside the plan", boundary, ran, finished)
	}
}

// raisedRef is how a priced raise used to become a plan, per slot — a whole
// copy of cur's levels with slot 0 at slot0, trimmed at the raised plan's
// completion point, adopted by Uncommit(cur) before and Commit after. Raise
// must stay indistinguishable from that triple.
func raisedRef(cur []int, priced Allocation, slot0 int) []int {
	levels := append([]int(nil), cur[:min(priced.FinishSlot+1, len(cur))]...)
	if len(levels) == 0 {
		levels = []int{0} // an empty plan gains its first slot
	}
	levels[0] = slot0
	return levels
}

// TestRaiseMatchesUncommitRaisedCommit drives two fillers in lockstep through
// chains of adopted raises — one with Raise, one with the triple it replaced —
// over random grids, non-monotone curves, both allocation disciplines, empty
// starting plans, with and without an arena (small, so plans also overflow to
// the heap): after every raise Raise's plan must be canonical runs that expand
// to the triple's levels, with identical accounting, the usage grids equal
// slot for slot, and the plan the chain started from — a cached fill other
// passes still read — must never be edited.
func TestRaiseMatchesUncommitRaisedCommit(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	curves := []throughput.Curve{
		fig4Curve(),
		throughput.MustCurve(map[int]float64{1: 0.7, 2: 1.2, 4: 1.9, 8: 2.4, 16: 3, 32: 3.3}),
		throughput.MustCurve(map[int]float64{1: 1, 2: 2.2, 4: 1.6, 8: 2.1, 16: 0.9}),
		throughput.MustCurve(map[int]float64{1: 1.5, 2: 1.1, 3: 1.4, 5: 0.8, 6: 1.45}),
	}
	randDemand := func() Demand {
		return Demand{
			Curve:        curves[rng.Intn(len(curves))],
			Remaining:    rng.Float64() * 40,
			DeadlineSlot: 1 + rng.Intn(40),
			MinGPUs:      1 + rng.Intn(2),
			MaxGPUs:      rng.Intn(2) * (1 + rng.Intn(32)),
		}
	}
	raises, empties, later, trimmed := 0, 0, 0, 0
	for i := 0; i < 3000; i++ {
		g, slotDur, pow2 := 1+rng.Intn(32), 0.5+rng.Float64(), rng.Intn(2) == 0
		a, b := NewFiller(g, slotDur, pow2), NewFiller(g, slotDur, pow2)
		if rng.Intn(2) == 0 {
			a.Arena = NewArena(rng.Intn(12))
		}
		for k := rng.Intn(3); k > 0; k-- {
			bg := b.Fill(randDemand())
			a.Commit(bg)
			b.Commit(bg)
		}
		d := randDemand()
		cur := a.Fill(d)
		if rng.Intn(5) == 0 {
			cur = Allocation{FinishSlot: d.DeadlineSlot} // an idle job: nothing planned yet
		}
		a.Commit(cur)
		b.Commit(cur)
		start := slices.Clone(cur.Levels)
		curA, curB := cur, cur.PerSlot()
		for won := 0; ; won++ {
			cur0 := dense(curB...).GPUsAt(0)
			step := cur0 + 1
			switch {
			case cur0 == 0 && pow2:
				step = 1 << bits.Len(uint(d.MinGPUs-1))
			case cur0 == 0:
				step = d.MinGPUs
			case pow2:
				step = cur0 * 2
			}
			priced, ok := refRaiseSlot0(b, d, curB, step, b.FreeAt(0)+cur0)
			if pricedA, okA := a.RaiseSlot0(d, curA, step, a.FreeAt(0)+cur0); okA != ok || !reflect.DeepEqual(pricedA, priced) {
				t.Fatalf("case %d: the two fillers price the raise differently: %+v %v vs %+v %v", i, pricedA, okA, priced, ok)
			}
			if !ok {
				break
			}
			before := len(curB)
			b.Uncommit(dense(curB...))
			curB = raisedRef(curB, priced, step)
			b.Commit(dense(curB...))
			curA = a.Raise(curA, priced, step)
			if diff := matchesDense(curA, priced, curB); diff != "" {
				t.Fatalf("case %d win %d: Raise built %+v, the triple %v: %s", i, won, curA, curB, diff)
			}
			if len(a.used) != len(b.used) {
				t.Fatalf("case %d win %d: grids of %d and %d slots", i, won, len(a.used), len(b.used))
			}
			for s := range a.used {
				if a.used[s] != b.used[s] {
					t.Fatalf("case %d win %d: slot %d holds %d after Raise, %d after the triple\n%v\n%v", i, won, s, a.used[s], b.used[s], a.used, b.used)
				}
			}
			if !slices.Equal(cur.Levels, start) {
				t.Fatalf("case %d win %d: Raise edited the plan the chain started from: %v, was %v", i, won, cur.Levels, start)
			}
			raises++
			if before == 0 {
				empties++
			}
			if won > 0 {
				later++
			}
			if len(curB) < before {
				trimmed++
			}
		}
	}
	if raises < 1000 || empties < 50 || later < 300 || trimmed < 100 {
		t.Errorf("generator covers too little: %d raises, %d of empty plans, %d after a first win, %d that gave back a tail", raises, empties, later, trimmed)
	}
}

// TestRaisePanics keeps the two tripwires of the triple Raise replaced:
// Commit's on an overcommitted slot and Uncommit's on releasing what was never
// reserved — at slot 0 and in the tail the raise gives back.
func TestRaisePanics(t *testing.T) {
	d := Demand{Curve: fig4Curve(), Remaining: 4, DeadlineSlot: 8, MinGPUs: 1}
	cur := NewFiller(4, 1, true).Fill(d) // [1,1,1,1]
	setup := func(committed ...int) (*Filler, Allocation) {
		f := NewFiller(4, 1, true)
		f.Commit(dense(committed...))
		priced, ok := f.RaiseSlot0(d, cur, 4, 4)
		if !ok || priced.FinishSlot >= 3 {
			t.Fatalf("setup: raise to 4 priced as %+v ok=%v, want a finish before slot 3", priced, ok)
		}
		return f, priced
	}
	for name, raise := range map[string]func(){
		"overcommit at slot 0": func() {
			f, priced := setup(1, 1, 1, 1)
			f.Commit(dense(1)) // the capacity the probe assumed is gone
			f.Raise(cur, priced, 4)
		},
		"under-release at slot 0": func() {
			f, priced := setup(0, 1, 1, 1)
			f.Raise(cur, priced, 4)
		},
		"under-release in the tail": func() {
			f, priced := setup(1, 1, 1, 0)
			f.Raise(cur, priced, 4)
		},
		"tail past the grid": func() {
			f, priced := setup(1, 1, 1)
			f.Raise(cur, priced, 4)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			raise()
		}()
	}
	// A raise gives the tail back a run at a time and checks each run once,
	// after subtracting it; the message must still name the first slot of the
	// tail that held too little or lies past the grid. Raising slot 0 of
	// eight slots at level 1 to 4 finishes 3 iterations in slot 1, so the
	// tail is the run of slots 2 to 7.
	long := dense(1, 1, 1, 1, 1, 1, 1, 1)
	short := Demand{Curve: fig4Curve(), Remaining: 3, DeadlineSlot: 8, MinGPUs: 1}
	for _, tc := range []struct {
		committed Allocation
		want      string
	}{
		{dense(1, 1, 1, 1, 0, 1, 0, 1), "plan: slot 4 under-release"},
		{dense(1, 1, 1, 1, 1), "plan: slot 5 under-release"},
		{dense(1, 1, 1, 0, 1), "plan: slot 3 under-release"},
	} {
		f := NewFiller(4, 1, true)
		f.Commit(tc.committed)
		priced, ok := f.RaiseSlot0(short, long, 4, 4)
		if !ok || priced.FinishSlot != 1 {
			t.Fatalf("raise of %v to 4 priced as %+v ok=%v, want a finish in slot 1", long.PerSlot(), priced, ok)
		}
		if got := panicMessage(func() { f.Raise(long, priced, 4) }); got != tc.want {
			t.Errorf("raise over %v: panic %q, want %q", tc.committed.PerSlot(), got, tc.want)
		}
	}
	// The same raise of a plan that is committed goes through.
	f, priced := setup(1, 1, 1, 1)
	if got := f.Raise(cur, priced, 4); got.GPUsAt(0) != 4 || f.UsedAt(0) != 4 || f.UsedAt(3) != 0 {
		t.Errorf("raise of a committed plan = %+v, used %v", got, f.used)
	}
}

// TestArenaStorage checks where a filler with an Arena puts what it hands
// out: plans and snapshots are carved back to back with no spare capacity
// (appending to one cannot reach its neighbour), they equal what a filler
// without an arena produces, a request that does not fit lands on the heap
// without disturbing the block, and Reset starts the block over.
func TestArenaStorage(t *testing.T) {
	d := Demand{Curve: fig4Curve(), Remaining: 4, DeadlineSlot: 8, MinGPUs: 1}
	plain := NewFiller(4, 1, true)
	f := NewFiller(4, 1, true)
	f.Arena = NewArena(3)

	a1, want := f.Fill(d), plain.Fill(d) // 4 slots at one level: 1 run
	if !reflect.DeepEqual(a1, want) || f.Arena.off != 1 || cap(a1.Levels) != 1 {
		t.Fatalf("first fill %+v (cap %d, block at %d), want %+v carved exactly", a1, cap(a1.Levels), f.Arena.off, want)
	}
	f.Commit(a1)
	plain.Commit(want)
	f.Commit(dense(0, 0, 1))
	plain.Commit(dense(0, 0, 1))
	snap := f.Snapshot() // usage [1 1 2 1]: 3 runs, 2 more than fit
	if f.Arena.off != 1 || snap.Slots() != 4 {
		t.Fatalf("overflowing snapshot of %d slots left the block at %d", snap.Slots(), f.Arena.off)
	}
	a2, want2 := f.Fill(d), plain.Fill(d) // 1 run, which fits
	if !reflect.DeepEqual(a2, want2) || f.Arena.off != 2 {
		t.Fatalf("second fill %+v (block at %d), want %+v carved behind the first", a2, f.Arena.off, want2)
	}
	snap2 := f.Snapshot() // 3 runs do not fit the 1 left
	if f.Arena.off != 2 || !reflect.DeepEqual(snap2, snap) {
		t.Fatalf("snapshot %+v (block at %d), want %+v from the heap", snap2, f.Arena.off, snap)
	}
	_ = append(a1.Levels, Run{Level: 3, End: 9})
	if !reflect.DeepEqual(a2, want2) {
		t.Fatalf("appending to a carved plan reached the plan behind it: %+v", a2)
	}
	// A zero-length result is still a plan, not nil, arena or heap.
	if z := f.Fill(Demand{Curve: fig4Curve(), Remaining: 4, MinGPUs: 1}); z.Levels == nil || len(z.Levels) != 0 {
		t.Errorf("fill over an empty horizon = %+v, want empty non-nil levels", z)
	}
	f.Arena.Reset()
	if a3 := f.Fill(d); f.Arena.off != 1 || &a3.Levels[0] != &a1.Levels[0] {
		t.Errorf("after Reset the block was not reused from its start (at %d)", f.Arena.off)
	}
	// Reset keeps the grid's storage but none of its contents.
	f.Reset(2)
	if f.G != 2 || f.TotalCommitted() != 0 || f.FreeAt(0) != 2 {
		t.Errorf("Reset(2) left G=%d used=%v", f.G, f.used)
	}
}

// TestFillEarliestCopiesOnlyItsPlan: FillEarliest doubles the horizon until
// a fill succeeds, and the attempts that fall short are discarded — only the
// plan it returns may be carved from the arena, so the block advances by
// exactly that plan's length, with or without a horizon that succeeds.
func TestFillEarliestCopiesOnlyItsPlan(t *testing.T) {
	for _, tc := range []struct {
		remaining float64
		maxSlots  int
	}{
		{10, 64}, // horizons 2 and 4 fall short, 8 succeeds
		{40, 64}, // 2 … 16 fall short, 32 succeeds
		{40, 12}, // 2 … 8 fall short, then the capped horizon of 12 does too
	} {
		d := Demand{Curve: fig4Curve(), Remaining: tc.remaining, DeadlineSlot: 2, MinGPUs: 1}
		f := NewFiller(4, 1, true)
		f.Arena = NewArena(1 << 10)
		got, want := f.FillEarliest(d, tc.maxSlots), NewFiller(4, 1, true).FillEarliest(d, tc.maxSlots)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("remaining %v: with an arena %+v, without %+v", tc.remaining, got, want)
		}
		if f.Arena.off != len(got.Levels) {
			t.Errorf("remaining %v cap %d: arena advanced %d runs for a plan of %d", tc.remaining, tc.maxSlots, f.Arena.off, len(got.Levels))
		}
	}
}

// refFill is progressive filling slot by slot — every level walked in full,
// levelAt and Curve.At computed afresh in every slot — kept as the reference
// oracle: the production fill prunes levels and computes level and throughput
// once per stretch of equal granted level, and must stay bit-identical to
// this walk. It returns the accounting with no runs and the plan per slot.
func refFill(f *Filler, d Demand, startSlot, fixed0 int) (Allocation, []int) {
	horizon := d.DeadlineSlot
	if horizon < 0 {
		horizon = 0
	}
	maxJ := f.G
	if d.MaxGPUs > 0 && d.MaxGPUs < maxJ {
		maxJ = d.MaxGPUs
	}
	probe := func(j int) (int, float64, bool) {
		if d.Remaining <= 1e-9 {
			return 0, 0, true
		}
		progress := 0.0
		for t := 0; t < horizon; t++ {
			x := f.levelAt(&d, j, startSlot, fixed0, t)
			if x == 0 {
				continue
			}
			delta := d.Curve.At(x) * f.SlotDur
			if progress+delta >= d.Remaining-1e-9 {
				fr := 0.0
				if delta > 0 {
					fr = (d.Remaining - progress) / delta
					if fr < 0 {
						fr = 0
					}
					if fr > 1 {
						fr = 1
					}
				}
				return t, fr, true
			}
			progress += delta
		}
		return horizon, 0, false
	}
	lastJ := 0
	for j := 1; j <= maxJ; j = f.nextLevel(j) {
		lastJ = j
		if fin, frac, ok := probe(j); ok {
			levels := make([]int, fin+1)
			gpuTime := 0.0
			for t := 0; t <= fin; t++ {
				x := f.levelAt(&d, j, startSlot, fixed0, t)
				levels[t] = x
				if t < fin {
					gpuTime += float64(x) * f.SlotDur
				} else {
					gpuTime += float64(x) * frac * f.SlotDur
				}
			}
			if d.Remaining <= 1e-9 {
				levels = nil
				gpuTime = 0
			}
			return Allocation{Satisfied: true, FinishSlot: fin, FinishFrac: frac, GPUTime: gpuTime}, levels
		}
	}
	levels := make([]int, horizon)
	gpuTime := 0.0
	for t := 0; t < horizon; t++ {
		x := f.levelAt(&d, lastJ, startSlot, fixed0, t)
		levels[t] = x
		gpuTime += float64(x) * f.SlotDur
	}
	if d.Remaining <= 1e-9 {
		return Allocation{Satisfied: true, FinishSlot: 0, GPUTime: 0}, make([]int, horizon)
	}
	return Allocation{Satisfied: false, FinishSlot: horizon, GPUTime: gpuTime}, levels
}

// TestRunFillMatchesSlotBySlot cross-checks the pruned single-walk fill
// against the slot-by-slot oracle over randomized usage grids, curves
// (monotone and not), capacities and worker caps off the powers of two, pins,
// and both allocation disciplines — whole Allocations must be identical
// (canonical runs expanding to the oracle's levels, FinishFrac and GPUTime to
// the bit), not merely close.
func TestRunFillMatchesSlotBySlot(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	curves := []throughput.Curve{
		fig4Curve(),
		throughput.MustCurve(map[int]float64{1: 0.7, 2: 1.2, 4: 1.9, 8: 2.4}),
		throughput.MustCurve(map[int]float64{2: 1, 4: 1.3}),
		// Non-monotone: the pruning bound must track the best level seen,
		// not the current one.
		throughput.MustCurve(map[int]float64{1: 1, 2: 2.2, 4: 1.6, 8: 2.1, 16: 0.9}),
		throughput.MustCurve(map[int]float64{1: 1.5, 2: 1.1, 3: 1.4, 5: 0.8, 6: 1.45}),
	}
	randomGrid := func(f *Filler) {
		// Random committed usage with runs and spikes.
		n := rng.Intn(20)
		used := make([]int, n)
		for t := 0; t < n; {
			u := rng.Intn(f.G + 1)
			end := t + 1 + rng.Intn(6)
			for ; t < n && t < end; t++ {
				used[t] = u
			}
		}
		f.used = used
	}
	check := func(i int, f *Filler, d Demand, startSlot, fixed0 int) {
		t.Helper()
		got := f.fill(&d, startSlot, fixed0)
		want, levels := refFill(f, d, startSlot, fixed0)
		if diff := matchesDense(got, want, levels); diff != "" {
			t.Fatalf("case %d: fill mismatch: %s\n grid=%v G=%d pow2=%v slot=%v d=%+v start=%d fixed0=%d\n got  %+v\n want %+v %v",
				i, diff, f.used, f.G, f.PowerOfTwo, f.SlotDur, d, startSlot, fixed0, got, want, levels)
		}
	}
	for i := 0; i < 6000; i++ {
		g := 1 << rng.Intn(5) // 1..16 GPUs
		if rng.Intn(3) == 0 {
			g = 1 + rng.Intn(20) // capacities off the powers of two
		}
		f := NewFiller(g, 0.5+rng.Float64(), rng.Intn(2) == 0)
		randomGrid(f)
		d := Demand{
			Curve:        curves[rng.Intn(len(curves))],
			Remaining:    rng.Float64() * 20,
			DeadlineSlot: rng.Intn(30),
			MinGPUs:      1 + rng.Intn(2),
			MaxGPUs:      rng.Intn(2) * (1 + rng.Intn(12)), // 0 = uncapped; caps off the powers of two
		}
		startSlot, fixed0 := 0, -1
		if rng.Intn(2) == 0 {
			startSlot, fixed0 = 1, rng.Intn(g+1)
		}
		check(i, f, d, startSlot, fixed0)
	}

	// Demands sitting on the pruning bound: Remaining within a relative 1e-9
	// (and out to either side of the guard) of what horizon slots at one
	// level's throughput deliver — with and without the walk's own 1e-9
	// completion tolerance added — where skipping a level one rounding too
	// early would move the chosen level or the finish slot.
	for i := 0; i < 4000; i++ {
		g := 1 + rng.Intn(16)
		f := NewFiller(g, 0.5+rng.Float64(), rng.Intn(2) == 0)
		if rng.Intn(2) == 0 {
			randomGrid(f)
		}
		curve := curves[rng.Intn(len(curves))]
		horizon := 1 + rng.Intn(40)
		if rng.Intn(4) == 0 {
			horizon = 1 + rng.Intn(3000) // long sums drift further from the closed-form bound
		}
		level := 1 + rng.Intn(g)
		eps := []float64{0, 1e-15, 1e-12, 1e-10, 1e-9, 5e-7, pruneGuard, 2 * pruneGuard}[rng.Intn(8)]
		if rng.Intn(2) == 0 {
			eps = -eps
		}
		d := Demand{
			Curve:        curve,
			Remaining:    float64(horizon)*curve.At(level)*f.SlotDur*(1+eps) + float64(rng.Intn(2))*1e-9,
			DeadlineSlot: horizon,
			MinGPUs:      1 + rng.Intn(2),
			MaxGPUs:      rng.Intn(2) * (1 + rng.Intn(12)),
		}
		startSlot, fixed0 := 0, -1
		if rng.Intn(4) == 0 {
			startSlot, fixed0 = 1, rng.Intn(g+1)
		}
		check(i, f, d, startSlot, fixed0)
	}

	// Grids shaped for the stretch walk, which groups slots by the level
	// they grant rather than by their usage: runs whose different usages
	// grant one level (free capacity inside one power-of-two band, above the
	// worker cap, or below the memory floor), grids that end before the
	// horizon on a run that does or does not grant the free tail's level, a
	// pinned slot 0 beside a run granting the pinned level, and capacities
	// up to 1 024 GPUs under grids of several hundred slots.
	wide := throughput.MustCurve(map[int]float64{1: 1, 4: 3, 64: 20, 512: 60, 1024: 70})
	curves = append(curves, wide)
	for i := 0; i < 3000; i++ {
		g, n := 1+rng.Intn(20), rng.Intn(40)
		if rng.Intn(3) == 0 {
			g, n = 1+rng.Intn(1024), 100+rng.Intn(500)
		}
		pow2 := rng.Intn(2) == 0
		f := NewFiller(g, 0.5+rng.Float64(), pow2)
		d := Demand{
			Curve:   curves[rng.Intn(len(curves))],
			MinGPUs: 1 + rng.Intn(min(g, 6)),
			MaxGPUs: rng.Intn(2) * (1 + rng.Intn(g)),
		}
		if !pow2 && g > 48 {
			d.MaxGPUs = 1 + rng.Intn(48) // unit levels are walked one by one
		}
		// free draws the free capacity of one run from a shape class.
		free := func() int {
			switch rng.Intn(5) {
			case 0: // one power-of-two band: every free count floors alike
				b := 1 << rng.Intn(bits.Len(uint(g)))
				return min(b+rng.Intn(b), g)
			case 1: // at or above the worker cap
				if d.MaxGPUs > 0 {
					return d.MaxGPUs + rng.Intn(g-d.MaxGPUs+1)
				}
				return g - rng.Intn(2)
			case 2: // below the memory floor: zero
				return rng.Intn(d.MinGPUs)
			default:
				return rng.Intn(g + 1)
			}
		}
		used := make([]int, n)
		for t := 0; t < n; {
			u := g - free()
			for end := t + 1 + rng.Intn(1+n/4); t < n && t < end; t++ {
				used[t] = u
				if rng.Intn(3) == 0 {
					used[t] = g - free() // one stretch, many usages
				}
			}
		}
		if n > 0 && rng.Intn(2) == 0 {
			// The grid's last run: usage that leaves the cap free grants
			// what the free tail grants at every level; more may not.
			u := 1 + rng.Intn(g)
			if rng.Intn(2) == 0 && d.MaxGPUs > 0 && d.MaxGPUs < g {
				u = 1 + rng.Intn(g-d.MaxGPUs)
			}
			for t := n - 1 - rng.Intn(n); t < n; t++ {
				used[t] = min(u, g)
			}
		}
		f.used = used
		horizon := rng.Intn(n + 60) // mostly past the grid's end
		perSlot := d.Curve.At(min(g, max(d.MaxGPUs, g*(1+rng.Intn(2))/2))) * f.SlotDur
		d.DeadlineSlot = horizon
		d.Remaining = rng.Float64() * float64(horizon+1) * perSlot
		startSlot, fixed0 := 0, -1
		if rng.Intn(3) == 0 {
			startSlot, fixed0 = 1, rng.Intn(g+1)
			if n > 1 && rng.Intn(2) == 0 {
				// Slot 0 pinned to a power of two with slot 1's usage, so
				// the level that equals the pin grants both alike.
				fixed0 = 1 << rng.Intn(bits.Len(uint(g)))
				used[0] = used[1]
			}
		}
		check(i, f, d, startSlot, fixed0)
	}
}

// TestGrantInterval checks grant against clampLevel usage by usage: the
// interval it returns must be exactly the usages in [0, G] that grant the
// same level, open-ended above G when that level is zero, so a stretch is
// never cut short nor carried past a change of level.
func TestGrantInterval(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 20000; i++ {
		g := 1 + rng.Intn(70)
		if rng.Intn(5) == 0 {
			g = 1 + rng.Intn(1024)
		}
		f := NewFiller(g, 1, rng.Intn(2) == 0)
		d := Demand{MinGPUs: rng.Intn(9), MaxGPUs: rng.Intn(2) * rng.Intn(g+1)}
		j := 1 + rng.Intn(g)
		u := rng.Intn(g + 1)
		x, lo, hi := f.grant(&d, j, u)
		grants := func(u int) int { return f.clampLevel(min(j, g-u), &d) }
		if x != grants(u) {
			t.Fatalf("case %d: grant(j=%d, u=%d) = %d, clampLevel says %d (G=%d d=%+v pow2=%v)", i, j, u, x, grants(u), g, d, f.PowerOfTwo)
		}
		for v := 0; v <= g; v++ {
			if in := lo <= v && v <= hi; in != (grants(v) == x) {
				t.Fatalf("case %d: usage %d in [%d, %d] = %v but grants %d against %d (G=%d j=%d u=%d d=%+v pow2=%v)",
					i, v, lo, hi, in, grants(v), x, g, j, u, d, f.PowerOfTwo)
			}
		}
		if (x == 0) != (hi == math.MaxInt) {
			t.Fatalf("case %d: level %d with interval [%d, %d], want an open end exactly for zero", i, x, lo, hi)
		}
	}
}

func TestSnapshotRestore(t *testing.T) {
	f := NewFiller(8, 1, true)
	f.Commit(dense(2, 2, 1))
	snap := f.Snapshot()
	if snap.Slots() != 3 {
		t.Fatalf("snapshot slots = %d want 3", snap.Slots())
	}

	a := f.Fill(Demand{Curve: fig4Curve(), Remaining: 6, DeadlineSlot: 6, MinGPUs: 1})
	f.Commit(a)
	longer := f.Fill(Demand{Curve: fig4Curve(), Remaining: 8, DeadlineSlot: 10, MinGPUs: 1})
	f.Commit(longer)

	f.Restore(snap)
	for t2 := 0; t2 < 12; t2++ {
		want := 0
		if t2 < 2 {
			want = 2
		} else if t2 == 2 {
			want = 1
		}
		if got := f.UsedAt(t2); got != want {
			t.Fatalf("after restore UsedAt(%d) = %d want %d", t2, got, want)
		}
	}

	// The snapshot survives the restore and mutating the filler afterwards.
	f.Commit(dense(4, 4, 4, 4))
	f.Restore(snap)
	if f.UsedAt(0) != 2 || f.UsedAt(3) != 0 {
		t.Fatalf("second restore: used=%v", f.used)
	}

	// Restoring into a fresh filler reproduces the same fills.
	f2 := NewFiller(8, 1, true)
	f2.Restore(snap)
	d := Demand{Curve: fig4Curve(), Remaining: 5, DeadlineSlot: 8, MinGPUs: 1}
	if got, want := f2.Fill(d), f.Fill(d); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored filler fills differ: %+v vs %+v", got, want)
	}
}

// TestRestoreShrinksGrid ensures Restore truncates usage committed after the
// snapshot even when the grid grew past the snapshot's length.
func TestRestoreShrinksGrid(t *testing.T) {
	f := NewFiller(4, 1, false)
	snap := f.Snapshot() // empty
	f.Commit(dense(1, 2, 3, 2, 1))
	f.Restore(snap)
	if f.TotalCommitted() != 0 {
		t.Fatalf("restore of empty snapshot left usage: %v", f.used)
	}
	if got := f.FreeAt(2); got != 4 {
		t.Fatalf("FreeAt(2) = %d want 4", got)
	}
	// Growing the grid again reuses the capacity the restore left behind;
	// what was committed there before must not resurface.
	f.Commit(dense(1, 0, 0, 1))
	for slot, want := range []int{1, 0, 0, 1, 0} {
		if got := f.UsedAt(slot); got != want {
			t.Fatalf("after recommit UsedAt(%d) = %d want %d (grid %v)", slot, got, want, f.used)
		}
	}
}

// TestSnapshotRoundTrip snapshots random grids — runs, spikes, zero stretches,
// the empty grid — with and without a (small) arena, and restores each into a
// filler whose grid is longer, shorter or empty: the snapshot's runs must be
// canonical and cover the grid, the restored grid must equal it slot for slot,
// and growing it again must not bring back what the longer grid held past its
// end (the capacity Restore leaves behind, which ensure clears). The snapshot
// must survive being restored and the filler changing after.
func TestSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	randomGrid := func() []int {
		grid := make([]int, rng.Intn(300))
		for s := 0; s < len(grid); {
			u := rng.Intn(9)
			for end := s + 1 + rng.Intn(20); s < len(grid) && s < end; s++ {
				grid[s] = u
				if rng.Intn(10) == 0 {
					grid[s] = rng.Intn(9)
				}
			}
		}
		return grid
	}
	longer, shorter := 0, 0
	for i := 0; i < 2000; i++ {
		src := NewFiller(16, 1, true)
		if rng.Intn(2) == 0 {
			src.Arena = NewArena(rng.Intn(64))
		}
		grid := randomGrid()
		src.Commit(dense(grid...))
		snap := src.Snapshot()
		if err := canonical(snap.used); err != "" || snap.Slots() != len(grid) {
			t.Fatalf("case %d: snapshot %v of %d slots for a grid of %d: %s", i, snap.used, snap.Slots(), len(grid), err)
		}
		dst := NewFiller(16, 1, true)
		before := randomGrid()
		dst.Commit(dense(before...))
		dst.Restore(snap)
		if !slices.Equal(dst.used, grid) {
			t.Fatalf("case %d: restored %v, want %v", i, dst.used, grid)
		}
		// Regrow to the longer grid's end — inside the capacity the restore
		// left behind — or past it.
		n := max(len(grid), len(before)) + rng.Intn(2)*(1+rng.Intn(20))
		dst.Commit(Allocation{Levels: []Run{{Level: 0, End: int32(n)}}})
		for s := len(grid); s < n; s++ {
			if dst.UsedAt(s) != 0 {
				t.Fatalf("case %d: slot %d holds %d after regrowing a restored grid of %d slots (it held %v before)", i, s, dst.UsedAt(s), len(grid), before)
			}
		}
		src.Commit(dense(randomGrid()...))
		src.Restore(snap)
		if !slices.Equal(src.used, grid) {
			t.Fatalf("case %d: second restore %v, want %v", i, src.used, grid)
		}
		switch {
		case len(before) > len(grid):
			longer++
		case len(before) < len(grid):
			shorter++
		}
	}
	if longer < 500 || shorter < 500 {
		t.Errorf("generator covers too little: %d restores into longer grids, %d into shorter", longer, shorter)
	}
}
