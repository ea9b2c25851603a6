package core

import (
	"testing"

	"github.com/elasticflow/elasticflow/internal/job"
	"github.com/elasticflow/elasticflow/internal/obs"
	"github.com/elasticflow/elasticflow/internal/throughput"
)

// traceJob builds an SLO job with a linear speedup curve, deadline seconds
// after now=0, and remaining iterations.
func traceJob(id string, iters, deadline float64) *job.Job {
	return &job.Job{
		ID:         id,
		Class:      job.SLO,
		TotalIters: iters,
		Deadline:   deadline,
		Curve:      throughput.MustCurve(map[int]float64{1: 1, 2: 2, 4: 4, 8: 8, 16: 16}),
		MinGPUs:    1,
		MaxGPUs:    16,
	}
}

func lastEventOfKind(o *obs.Obs, kind string) (obs.Event, bool) {
	evs := o.Bus.Since(0)
	for i := len(evs) - 1; i >= 0; i-- {
		if evs[i].Kind == kind {
			return evs[i], true
		}
	}
	return obs.Event{}, false
}

// TestAdmitTraceVerdicts: admission publishes one sched-admit event per
// decision carrying the verdict, the deciding reason and the candidate's
// minimum satisfactory share.
func TestAdmitTraceVerdicts(t *testing.T) {
	o := obs.NewDefault()
	e := New(Options{SlotSec: 1, PowerOfTwo: true, Obs: o})

	good := traceJob("good", 100, 200)
	if !e.Admit(0, good, nil, 16) {
		t.Fatal("feasible job not admitted")
	}
	ev, ok := lastEventOfKind(o, obs.KindSchedAdmit)
	if !ok {
		t.Fatal("no sched-admit event after Admit")
	}
	if ev.JobID != "good" {
		t.Errorf("trace job = %s, want good", ev.JobID)
	}
	if v, _ := ev.Field("verdict"); v != "admit" {
		t.Errorf("verdict = %s, want admit", v)
	}
	if r, _ := ev.Field("reason"); r != "ok" {
		t.Errorf("reason = %s, want ok", r)
	}
	if _, ok := ev.Field("mss_gpus"); !ok {
		t.Error("admitted trace missing mss_gpus")
	}

	// Impossible: needs far more GPU time than 16 GPUs × 10 s provide.
	bad := traceJob("bad", 1e6, 10)
	if e.Admit(0, bad, nil, 16) {
		t.Fatal("infeasible job admitted")
	}
	ev, _ = lastEventOfKind(o, obs.KindSchedAdmit)
	if v, _ := ev.Field("verdict"); v != "drop" {
		t.Errorf("verdict = %s, want drop", v)
	}
	if r, _ := ev.Field("reason"); r != "candidate-infeasible" {
		t.Errorf("reason = %s, want candidate-infeasible", r)
	}
}

// TestAdmitTraceBreaksGuarantee: a candidate that starves an earlier
// admission is rejected naming the victim.
func TestAdmitTraceBreaksGuarantee(t *testing.T) {
	o := obs.NewDefault()
	e := New(Options{SlotSec: 1, PowerOfTwo: true, Obs: o})

	// First job consumes most of the cluster until t=20.
	a := traceJob("a", 200, 20)
	if !e.Admit(0, a, nil, 16) {
		t.Fatal("job a not admitted")
	}
	// Tight-deadline candidate would need the capacity job a holds. Its
	// own fill (earlier deadline, fills first) succeeds but pushes a over.
	b := traceJob("b", 150, 15)
	if e.Admit(0, b, []*job.Job{a}, 16) {
		t.Fatal("job b admitted over a's guarantee")
	}
	ev, ok := lastEventOfKind(o, obs.KindSchedAdmit)
	if !ok {
		t.Fatal("no sched-admit event")
	}
	if r, _ := ev.Field("reason"); r != "breaks-guarantee" {
		t.Fatalf("reason = %s, want breaks-guarantee", r)
	}
	if v, _ := ev.Field("victim"); v != "a" {
		t.Errorf("victim = %s, want a", v)
	}
}

// TestScheduleTrace: each Schedule call publishes one sched-alloc summary
// with spare-round accounting.
func TestScheduleTrace(t *testing.T) {
	o := obs.NewDefault()
	e := New(Options{SlotSec: 1, PowerOfTwo: true, Obs: o})
	j := traceJob("solo", 100, 1000)
	j.State = job.Admitted
	dec := e.Schedule(0, []*job.Job{j}, 16)
	if dec.Alloc["solo"] <= 0 {
		t.Fatalf("no allocation for solo: %v", dec.Alloc)
	}
	ev, ok := lastEventOfKind(o, obs.KindSchedAlloc)
	if !ok {
		t.Fatal("no sched-alloc event after Schedule")
	}
	if v, _ := ev.Field("jobs"); v != "1" {
		t.Errorf("jobs = %s, want 1", v)
	}
	if _, ok := ev.Field("spare_rounds"); !ok {
		t.Error("sched-alloc missing spare_rounds")
	}
	if v, _ := ev.Field("capacity"); v != "16" {
		t.Errorf("capacity = %s, want 16", v)
	}
	// A loose deadline leaves spare capacity: the solo job should win
	// spare rounds above its 1-GPU MSS.
	if w, ok := ev.Field("winners"); ok && w == "" {
		t.Errorf("winners present but empty")
	}
}
