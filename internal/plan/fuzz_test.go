package plan

import (
	"reflect"
	"testing"

	"github.com/elasticflow/elasticflow/internal/throughput"
)

// FuzzFill drives progressive filling with arbitrary demands and background
// usage: it must never panic, never overcommit, and a satisfied plan must
// finish within its deadline horizon. It is also a reference fuzz: Fill and
// FillFixedSlot0 must equal the slot-by-slot refFill, FillCommit must return
// what Fill does and leave the grid as Fill and Commit would (unchanged when
// the fill is unsatisfied), and RaiseSlot0 of the committed plan must equal
// refRaiseSlot0, Allocation for Allocation; every plan's runs are canonical
// and expand to the oracle's levels.
func FuzzFill(f *testing.F) {
	f.Add(int64(1), uint16(10), uint8(4), uint8(1), uint8(8), false)
	f.Add(int64(2), uint16(1000), uint8(16), uint8(2), uint8(0), true)
	f.Add(int64(3), uint16(0), uint8(0), uint8(0), uint8(0), false)
	f.Fuzz(func(t *testing.T, seed int64, remRaw uint16, deadline, minG, maxG uint8, pow2 bool) {
		curve := throughput.MustCurve(map[int]float64{1: 1, 2: 1.7, 4: 2.9, 8: 4.2, 16: 5.1})
		g := 16
		fl := NewFiller(g, 1, pow2)
		// Background load derived from the seed, in runs so that fills
		// walk stretches longer than one slot.
		bg := make([]int, int(deadline)%32)
		x := seed
		for i := 0; i < len(bg); {
			x = x*6364136223846793005 + 1442695040888963407
			v := int(uint64(x)>>33) % (g + 1)
			for end := i + 1 + int(uint64(x)>>60)%4; i < len(bg) && i < end; i++ {
				bg[i] = v
			}
		}
		fl.Commit(dense(bg...))

		d := Demand{
			Curve:        curve,
			Remaining:    float64(remRaw) / 7,
			DeadlineSlot: int(deadline) % 64,
			MinGPUs:      int(minG) % 8,
			MaxGPUs:      int(maxG) % 32,
		}
		a := fl.Fill(d)
		want, levels := refFill(fl, d, 0, -1)
		if diff := matchesDense(a, want, levels); diff != "" {
			t.Fatalf("Fill = %+v, slot by slot %+v %v: %s (grid %v, d %+v)", a, want, levels, diff, bg, d)
		}
		if diff := fillCommitDiff(fl, d, a); diff != "" {
			t.Fatalf("%s (grid %v, d %+v)", diff, bg, d)
		}
		pin := int(uint64(seed)>>8) % (g + 1)
		pinned := fl.FillFixedSlot0(d, pin)
		want, levels = refFill(fl, d, 1, pin)
		if diff := matchesDense(pinned, want, levels); diff != "" {
			t.Fatalf("FillFixedSlot0(%d) = %+v, slot by slot %+v %v: %s (grid %v, d %+v)", pin, pinned, want, levels, diff, bg, d)
		}
		fl.Commit(a)
		for s := 0; s < 70; s++ {
			if fl.UsedAt(s) > g {
				t.Fatalf("slot %d overcommitted: %d > %d", s, fl.UsedAt(s), g)
			}
		}
		if a.Satisfied && d.Remaining > 1e-9 && a.FinishSlot >= d.DeadlineSlot {
			t.Fatalf("satisfied plan finishes at slot %d, deadline %d", a.FinishSlot, d.DeadlineSlot)
		}
		if a.GPUTime < 0 {
			t.Fatalf("negative GPU time %v", a.GPUTime)
		}
		slot0, free0 := int(uint64(seed)>>16)%(g+1), fl.FreeAt(0)+a.GPUsAt(0)
		got, ok := fl.RaiseSlot0(d, a, slot0, free0)
		if want, wok := refRaiseSlot0(fl, d, a.PerSlot(), slot0, free0); ok != wok || !reflect.DeepEqual(got, want) {
			t.Fatalf("RaiseSlot0(%d) = %+v %v, slot by slot %+v %v (plan %v, d %+v)", slot0, got, ok, want, wok, a.Levels, d)
		}
	})
}
