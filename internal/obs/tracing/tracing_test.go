package tracing

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"
)

// emitLifecycle drives one representative span sequence against tr.
func emitLifecycle(tr *Tracer) {
	tr.StartJob(0, "job-0001")
	tr.EmitLSN(0, SpanAdmit, "job-0001", 3, A("verdict", "admit"))
	tr.EmitLSN(0, SpanPlan, "job-0001", 0, A("mss_gpus", 2))
	ep := tr.Begin(0, SpanSchedEpoch, "")
	tr.End(0, ep, A("used_gpus", 2))
	tr.EmitLSN(0, SpanPlace, "job-0001", 0, A("gpus", "0->2"))
	tr.EmitLSN(50, SpanRescale, "job-0001", 7, A("gpus", "2->4"))
	tr.EndJob(100, "job-0001", 9, A("deadline_met", true))
}

func TestDeterministicIDs(t *testing.T) {
	a, b := New(42), New(42)
	emitLifecycle(a)
	emitLifecycle(b)
	aj, err := json.Marshal(a.Spans())
	if err != nil {
		t.Fatal(err)
	}
	bj, err := json.Marshal(b.Spans())
	if err != nil {
		t.Fatal(err)
	}
	if string(aj) != string(bj) {
		t.Fatalf("same seed, same calls, different trails:\n%s\nvs\n%s", aj, bj)
	}
	c := New(43)
	emitLifecycle(c)
	if cj, _ := json.Marshal(c.Spans()); string(cj) == string(aj) {
		t.Fatal("different seeds produced identical span IDs")
	}
}

func TestTreeShape(t *testing.T) {
	tr := New(1)
	emitLifecycle(tr)
	spans := tr.Spans()
	if len(spans) != 6 {
		t.Fatalf("got %d spans, want 6: %+v", len(spans), spans)
	}
	var root Span
	byName := make(map[string]Span)
	for _, s := range spans {
		byName[s.Name] = s
		if s.Name == SpanJobLifecycle {
			root = s
		}
	}
	if root.ID == 0 {
		t.Fatal("no job.lifecycle root recorded")
	}
	if root.Open {
		t.Fatal("root still open after EndJob")
	}
	if root.Start != 0 || root.End != 100 {
		t.Fatalf("root spans [%v,%v], want [0,100]", root.Start, root.End)
	}
	if root.LSN != 9 {
		t.Fatalf("root LSN = %d, want 9 (stamped at EndJob)", root.LSN)
	}
	for _, name := range []string{SpanAdmit, SpanPlan, SpanPlace, SpanRescale} {
		if byName[name].Parent != root.ID {
			t.Errorf("%s parent = %x, want root %x", name, byName[name].Parent, root.ID)
		}
	}
	if byName[SpanSchedEpoch].Parent != 0 {
		t.Errorf("sched.epoch should be a root span, has parent %x", byName[SpanSchedEpoch].Parent)
	}
	if byName[SpanAdmit].LSN != 3 {
		t.Errorf("admit LSN = %d, want 3", byName[SpanAdmit].LSN)
	}
	job := tr.Job("job-0001")
	if len(job) != 5 {
		t.Fatalf("Job() returned %d spans, want 5", len(job))
	}
}

func TestOpenSpansExported(t *testing.T) {
	tr := New(2)
	tr.StartJob(10, "job-a")
	spans := tr.Spans()
	if len(spans) != 1 || !spans[0].Open || spans[0].Name != SpanJobLifecycle {
		t.Fatalf("open root not exported: %+v", spans)
	}
	if spans[0].Start != 10 || spans[0].End != 10 {
		t.Fatalf("open span times = [%v,%v], want [10,10]", spans[0].Start, spans[0].End)
	}
	// Idempotent StartJob: replaying the admission must not fork a second root.
	tr.StartJob(11, "job-a")
	if n := len(tr.Spans()); n != 1 {
		t.Fatalf("duplicate StartJob forked a second root (%d spans)", n)
	}
}

func TestRingEviction(t *testing.T) {
	tr := New(3).WithCap(4)
	for i := 0; i < 10; i++ {
		tr.EmitLSN(float64(i), SpanHeartbeat, "", 0)
	}
	if got := len(tr.Spans()); got != 4 {
		t.Fatalf("ring holds %d spans, want 4", got)
	}
	if tr.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", tr.Dropped())
	}
	if tr.Count() != 10 {
		t.Fatalf("count = %d, want 10", tr.Count())
	}
	if first := tr.Spans()[0]; first.Start != 6 {
		t.Fatalf("oldest surviving span starts at %v, want 6 (FIFO eviction)", first.Start)
	}
}

func TestNilTracer(t *testing.T) {
	var tr *Tracer
	tr.StartJob(0, "j")
	tr.EndJob(1, "j", 0)
	ref := tr.Begin(0, SpanSchedEpoch, "")
	if ref.Valid() {
		t.Fatal("nil tracer handed out a valid ref")
	}
	tr.End(1, ref)
	tr.EmitLSN(0, SpanAdmit, "j", 1)
	if tr.Spans() != nil || tr.Job("j") != nil || tr.Count() != 0 || tr.Dropped() != 0 || tr.Seed() != 0 {
		t.Fatal("nil tracer accessors must return zero values")
	}
	if tr.WithCap(8) != nil {
		t.Fatal("nil WithCap must stay nil")
	}
}

func TestEndUnknownRef(t *testing.T) {
	tr := New(4)
	tr.End(1, Ref{})          // invalid
	tr.End(1, Ref{id: 12345}) // never begun
	tr.EndJob(1, "ghost", 0)  // never started
	ref := tr.Begin(0, SpanHeartbeat, "")
	tr.End(1, ref)
	tr.End(2, ref) // double End is a no-op
	if n := len(tr.Spans()); n != 1 {
		t.Fatalf("got %d spans, want 1", n)
	}
}

func TestConcurrentEmission(t *testing.T) {
	tr := New(5)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			job := "job-" + string(rune('a'+g))
			tr.StartJob(0, job)
			for i := 0; i < 100; i++ {
				ref := tr.Begin(float64(i), SpanHeartbeat, "")
				tr.End(float64(i), ref)
				tr.EmitLSN(float64(i), SpanRescale, job, 0)
			}
			tr.EndJob(100, job, 0)
		}(g)
	}
	wg.Wait()
	if got, want := tr.Count(), uint64(8*(1+200)); got != want {
		t.Fatalf("count = %d, want %d", got, want)
	}
}

// TestRingWrapAround drives the ring several laps past its capacity with
// open spans interleaved: closed spans come back oldest-first in close
// order, open spans follow in begin order (not close or map order), and the
// eviction count is exact at every step.
func TestRingWrapAround(t *testing.T) {
	const capN = 5
	tr := New(6).WithCap(capN)
	// Opened in this order, never closed before the final check; b closes
	// mid-run so the open set has a hole in its begin sequence.
	tr.StartJob(0, "job-keep")
	a := tr.Begin(1, SpanSchedEpoch, "")
	b := tr.Begin(2, SpanHeartbeat, "")
	c := tr.Begin(3, SpanSchedEpoch, "")
	for i := 0; i < 23; i++ {
		tr.EmitLSN(float64(10+i), SpanRescale, "job-keep", 0, A("i", i))
		if i == 11 {
			tr.End(50, b)
		}
		closed := i + 1
		if i >= 11 {
			closed++
		}
		wantDropped := 0
		if closed > capN {
			wantDropped = closed - capN
		}
		if got := tr.Dropped(); got != uint64(wantDropped) {
			t.Fatalf("after %d closes Dropped = %d, want %d", closed, got, wantDropped)
		}
	}
	spans := tr.Spans()
	if len(spans) != capN+3 {
		t.Fatalf("got %d spans, want %d closed + 3 open", len(spans), capN)
	}
	for i, s := range spans[:capN] {
		if want := float64(10 + 23 - capN + i); s.Open || s.Start != want {
			t.Fatalf("closed span %d = %+v, want a closed span starting at %v", i, s, want)
		}
	}
	open := spans[capN:]
	if open[0].Name != SpanJobLifecycle || open[1].Start != 1 || open[2].Start != 3 {
		t.Fatalf("open spans not in begin order: %+v", open)
	}
	for _, s := range open {
		if !s.Open {
			t.Fatalf("span %+v exported after the closed ones but not marked open", s)
		}
	}
	// Job filters the same order: the surviving rescales, then the open root.
	job := tr.Job("job-keep")
	if len(job) != capN+1 || job[capN].Name != SpanJobLifecycle || job[0].Start != spans[0].Start {
		t.Fatalf("Job() = %+v", job)
	}
	tr.End(60, c)
	tr.End(61, a)
	spans = tr.Spans()
	if n := len(spans); n != capN+1 || spans[capN-1].Start != 1 || spans[capN-2].Start != 3 {
		t.Fatalf("closing c then a should append them in close order: %+v", spans)
	}
}

// TestWithCapShrinkKeepsNewest lowers the capacity of a wrapped ring: the
// newest spans survive, the rest count as dropped, and the ring keeps
// working at the new size (and at a larger one afterwards).
func TestWithCapShrinkKeepsNewest(t *testing.T) {
	tr := New(7).WithCap(8)
	for i := 0; i < 13; i++ { // wrapped: holds 5..12, head mid-ring
		tr.EmitLSN(float64(i), SpanHeartbeat, "", 0)
	}
	tr.WithCap(3)
	starts := func() (out []float64) {
		for _, s := range tr.Spans() {
			out = append(out, s.Start)
		}
		return out
	}
	if got := starts(); len(got) != 3 || got[0] != 10 || got[2] != 12 {
		t.Fatalf("after shrink to 3 ring holds %v, want [10 11 12]", got)
	}
	if tr.Dropped() != 10 {
		t.Fatalf("dropped = %d, want 10", tr.Dropped())
	}
	tr.EmitLSN(13, SpanHeartbeat, "", 0)
	if got := starts(); len(got) != 3 || got[0] != 11 || got[2] != 13 {
		t.Fatalf("after one more emit ring holds %v, want [11 12 13]", got)
	}
	tr.WithCap(5) // grow a wrapped ring
	tr.EmitLSN(14, SpanHeartbeat, "", 0)
	tr.EmitLSN(15, SpanHeartbeat, "", 0)
	tr.EmitLSN(16, SpanHeartbeat, "", 0)
	if got := starts(); len(got) != 5 || got[0] != 12 || got[4] != 16 {
		t.Fatalf("after growing to 5 ring holds %v, want [12 .. 16]", got)
	}
	if tr.Dropped() != 12 {
		t.Fatalf("dropped = %d, want 12", tr.Dropped())
	}
}

// TestEmitFullRingDoesNotAllocate pins the steady state of a long-running
// server: once the ring is full, recording a span moves no other span and
// allocates nothing beyond the caller's attrs.
func TestEmitFullRingDoesNotAllocate(t *testing.T) {
	tr := New(8).WithCap(64)
	attrs := []Attr{{Key: "k", Value: "v"}}
	for i := 0; i < 64; i++ {
		tr.EmitLSN(0, SpanHeartbeat, "", 1, attrs...)
	}
	if n := testing.AllocsPerRun(200, func() { tr.EmitLSN(0, SpanHeartbeat, "", 1, attrs...) }); n != 0 {
		t.Fatalf("emit into a full ring allocates %v times, want 0", n)
	}
}

// BenchmarkTracerEmitFullRing emits into an already-full ring at two
// capacities; the cost per span must not depend on the capacity.
func BenchmarkTracerEmitFullRing(b *testing.B) {
	attrs := []Attr{{Key: "k", Value: "v"}}
	for _, capN := range []int{1 << 10, 1 << 15} {
		b.Run(fmt.Sprintf("cap=%d", capN), func(b *testing.B) {
			tr := New(9).WithCap(capN)
			for i := 0; i < capN; i++ {
				tr.EmitLSN(0, SpanHeartbeat, "", 1, attrs...)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.EmitLSN(float64(i), SpanHeartbeat, "", 1, attrs...)
			}
		})
	}
}
