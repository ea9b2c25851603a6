package obs

import (
	"strings"
	"testing"
	"time"
)

// TestNilObsIsSafe: every emitter must be a no-op on a nil *Obs, so wiring
// sites never guard.
func TestNilObsIsSafe(t *testing.T) {
	var o *Obs
	o.Event(1, KindDrop, "j")
	o.EventNow(KindError, "")
	o.IncError("x")
	o.IncEncodeError()
	o.IncAcceptError()
	o.SetUsedGPUs(4)
	o.SetClusterEfficiency(0.5)
	o.ObserveDecision("allocate", 0.1)
	if o.Now() != 0 {
		t.Error("nil Now() != 0")
	}
	if o.Timer()() != 0 {
		t.Error("nil Timer not zero")
	}
}

func TestObsInjectedClock(t *testing.T) {
	now := time.Unix(100, 0)
	o := New(Options{Clock: func() time.Time { return now }})
	stop := o.Timer()
	now = now.Add(250 * time.Millisecond)
	if sec := stop(); sec != 0.25 {
		t.Errorf("Timer = %g, want 0.25", sec)
	}
	if o.Now() != 0.25 {
		t.Errorf("Now = %g, want 0.25", o.Now())
	}
	o.EventNow(KindError, "", F("err", "boom"))
	evs := o.Bus.Since(0)
	if len(evs) != 1 || evs[0].Time != 0.25 {
		t.Errorf("EventNow stamped %+v, want time 0.25", evs)
	}
}

func TestObsCatalogRenders(t *testing.T) {
	o := NewDefault()
	o.Event(1, KindAdmit, "a")
	o.Event(1, KindDrop, "b", F("reason", "admission control"))
	o.Event(2, KindRescale, "a", F("gpus", 4))
	o.Event(2, KindMigrate, "a", F("from", 0), F("to", 8))
	o.Event(3, KindComplete, "a", F("met", true))
	o.SetUsedGPUs(12)
	o.SetClusterEfficiency(0.875)
	o.ObserveDecision("allocate", 0.002)
	o.IncEncodeError()
	o.IncAcceptError()

	var b strings.Builder
	if err := o.Metrics.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`ef_admissions_total{verdict="admit"} 1`,
		`ef_admissions_total{verdict="drop"} 1`,
		"ef_rescales_total 1",
		"ef_migrations_total 1",
		`ef_completions_total{met="true"} 1`,
		"ef_used_gpus 12",
		"ef_cluster_efficiency 0.875",
		`ef_sched_decision_seconds_count{op="allocate"} 1`,
		"ef_http_encode_errors_total 1",
		"ef_agent_accept_errors_total 1",
		`ef_errors_total{source="agent-accept"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("catalog missing %q", want)
		}
	}
}

// TestFaultEventsCount: the fault-tolerance kinds count through the same
// table, the injected-fault series labelled by the event's kind field; a
// restore event counts nothing (IncRestore is explicit).
func TestFaultEventsCount(t *testing.T) {
	o := NewDefault()
	o.EventNow(KindRetry, "", F("agent", "a"), F("op", "Launch"), F("attempt", 1))
	o.EventNow(KindAgentDown, "", F("agent", "a"))
	o.EventNow(KindFault, "", F("agent", "a"), F("op", "Launch"), F("kind", "drop"))
	o.EventNow(KindFault, "", F("agent", "b"), F("op", "Stop"), F("kind", "drop"))
	o.EventNow(KindRestore, "j", F("step", 3), F("from", "a"))

	var b strings.Builder
	if err := o.Metrics.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"ef_rpc_retries_total 1",
		"ef_agent_down_total 1",
		`ef_faults_injected_total{kind="drop"} 2`,
		"ef_checkpoint_restores_total 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("catalog missing %q", want)
		}
	}
}

// TestObsCatalogPreRegistered: a scrape before any activity must already
// show the families (and the fixed admission verdict series) at zero.
func TestObsCatalogPreRegistered(t *testing.T) {
	o := NewDefault()
	var b strings.Builder
	if err := o.Metrics.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`ef_admissions_total{verdict="admit"} 0`,
		`ef_admissions_total{verdict="drop"} 0`,
		"# TYPE ef_rescales_total counter",
		"# TYPE ef_migrations_total counter",
		"# TYPE ef_used_gpus gauge",
		"# TYPE ef_cluster_efficiency gauge",
		"# TYPE ef_sched_decision_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("fresh catalog missing %q", want)
		}
	}
}
