package obs

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/elasticflow/elasticflow/internal/obs/tracing"
)

// TestNilObsIsSafe: every emitter must be a no-op on a nil *Obs, so wiring
// sites never guard.
func TestNilObsIsSafe(t *testing.T) {
	var o *Obs
	o.Event(Event{Time: 1, Kind: KindDrop, JobID: "j"})
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
	o.EventNow(KindError, "", tracing.A("err", "boom"))
	evs := o.Bus.Since(0)
	if len(evs) != 1 || evs[0].Time != 0.25 {
		t.Errorf("EventNow stamped %+v, want time 0.25", evs)
	}
}

func TestObsCatalogRenders(t *testing.T) {
	o := NewDefault()
	o.Event(Event{Time: 1, Kind: KindAdmit, JobID: "a"})
	o.Event(Event{Time: 1, Kind: KindDrop, JobID: "b", Fields: []tracing.Attr{tracing.A("reason", "admission control")}})
	o.Event(Event{Time: 2, Kind: KindRescale, JobID: "a", Fields: []tracing.Attr{tracing.A("gpus", 4)}})
	o.Event(Event{Time: 2, Kind: KindMigrate, JobID: "a", Fields: []tracing.Attr{tracing.A("from", 0), tracing.A("to", 8)}})
	o.Event(Event{Time: 3, Kind: KindComplete, JobID: "a", Fields: []tracing.Attr{tracing.A("met", true)}})
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
// table, the injected-fault series labelled by the event's kind field, a
// mirror event counts one mirror; a restore event counts nothing
// (IncRestore is explicit).
func TestFaultEventsCount(t *testing.T) {
	o := NewDefault()
	o.EventNow(KindRetry, "", tracing.A("agent", "a"), tracing.A("op", "Launch"), tracing.A("attempt", 1))
	o.EventNow(KindAgentDown, "", tracing.A("agent", "a"))
	o.EventNow(KindFault, "", tracing.A("agent", "a"), tracing.A("op", "Launch"), tracing.A("kind", "drop"))
	o.EventNow(KindFault, "", tracing.A("agent", "b"), tracing.A("op", "Stop"), tracing.A("kind", "drop"))
	o.EventNow(KindRestore, "j", tracing.A("step", 3), tracing.A("from", "a"))
	o.EventNow(KindMirror, "j", tracing.A("step", 3), tracing.A("agent", "a"))

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
		"ef_checkpoint_mirrors_total 1",
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

// TestEventDerivesSpan pins the kind→span table: an event of a span-bearing
// kind records exactly one point span — the table's name, under the job's
// open lifecycle root, at the event's time and LSN, with the event's fields
// as its attributes — and a terminal kind closes the root with its outcome.
// Every other kind records no span and leaves the root open.
func TestEventDerivesSpan(t *testing.T) {
	kv := []tracing.Attr{tracing.A("gpus", 4), tracing.A("was", 2)}
	met := func(v bool) []tracing.Attr { return []tracing.Attr{tracing.A("met", v), tracing.A("iters", 100)} }
	type row struct {
		kind    string
		fields  []tracing.Attr
		span    string       // "" = no point span
		outcome tracing.Attr // zero = the root stays open
	}
	cases := []row{
		{kind: KindSchedAdmit, fields: kv, span: tracing.SpanPlan},
		{kind: KindAdmit, fields: kv, span: tracing.SpanAdmit},
		{kind: KindDrop, fields: kv, span: tracing.SpanAdmit, outcome: tracing.A("outcome", "dropped")},
		{kind: KindCancel, outcome: tracing.A("outcome", "cancelled")},
		{kind: KindPlace, fields: kv, span: tracing.SpanPlace},
		{kind: KindResize, fields: kv, span: tracing.SpanRescale},
		{kind: KindMigrate, fields: kv, span: tracing.SpanMigrate},
		{kind: KindEvict, fields: kv, span: tracing.SpanNodeDownRecover},
		{kind: KindComplete, fields: met(true), span: tracing.SpanComplete, outcome: tracing.A("deadline_met", true)},
		{kind: KindComplete, fields: met(false), span: tracing.SpanMiss, outcome: tracing.A("deadline_met", false)},
	}
	for _, kind := range []string{
		KindRescale, KindFailure, KindRecovery, KindError, KindSchedAlloc, KindFault, KindRetry,
		KindAgentDown, KindAgentUp, KindMirror, KindRestore, KindLost, KindInfeasible, KindBatch,
	} {
		cases = append(cases, row{kind: kind, fields: kv})
	}
	for _, c := range cases {
		tr := tracing.New(1)
		o := New(Options{Tracer: tr})
		tr.StartJob(1, "j")
		o.Event(Event{Time: 5, Kind: c.kind, JobID: "j", LSN: 9, Fields: c.fields})
		var root tracing.Span
		var points []tracing.Span
		for _, s := range tr.Spans() {
			if s.Name == tracing.SpanJobLifecycle {
				root = s
			} else {
				points = append(points, s)
			}
		}
		name := c.kind + "/" + c.span
		switch {
		case c.span == "" && len(points) != 0:
			t.Errorf("%s: recorded %+v, want no span", name, points)
		case c.span != "" && len(points) != 1:
			t.Errorf("%s: recorded %d spans, want 1", name, len(points))
		case c.span != "":
			s := points[0]
			if s.Name != c.span || s.Parent != root.ID || s.LSN != 9 || s.Start != 5 || s.End != 5 || !reflect.DeepEqual(s.Attrs, c.fields) {
				t.Errorf("%s: span %+v, want %s under root %d at t=5, LSN 9, attrs %v", name, s, c.span, root.ID, c.fields)
			}
		}
		if c.outcome.Key == "" {
			if !root.Open {
				t.Errorf("%s: closed the lifecycle root", name)
			}
			continue
		}
		if root.Open || root.End != 5 || root.LSN != 9 || !reflect.DeepEqual(root.Attrs, []tracing.Attr{c.outcome}) {
			t.Errorf("%s: root %+v, want closed at t=5, LSN 9 with %v", name, root, c.outcome)
		}
	}
}
