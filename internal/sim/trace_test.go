package sim

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"github.com/elasticflow/elasticflow/internal/core"
	"github.com/elasticflow/elasticflow/internal/obs"
	"github.com/elasticflow/elasticflow/internal/obs/tracing"
)

// traceRun simulates the obsTrace workload (with a mid-run node failure to
// exercise recovery spans) against a tracer-wired Obs and returns the
// Result, the tracer and the Obs.
func traceRun(t *testing.T, tr *tracing.Tracer) (Result, *tracing.Tracer, *obs.Obs) {
	t.Helper()
	o := obs.New(obs.Options{RingSize: 1 << 20, Tracer: tr})
	ef := core.New(core.Options{SlotSec: 1, PowerOfTwo: true}).WithObs(o)
	res, err := Run(Config{
		Topology:  smallTopology(),
		Scheduler: ef,
		SampleSec: 25,
		Failures:  []Failure{{Server: 0, StartSec: 60, DurationSec: 120}},
		Obs:       o,
	}, obsTrace(), "golden")
	if err != nil {
		t.Fatal(err)
	}
	return res, tr, o
}

// TestSpanTrailDeterminism is the tracing arm of the golden determinism
// check: two same-seed runs must produce byte-identical span trails, and
// wiring a tracer must leave the Result byte-identical to an untraced run.
func TestSpanTrailDeterminism(t *testing.T) {
	resA, trA, oA := traceRun(t, tracing.New(7))
	resB, trB, oB := traceRun(t, tracing.New(7))

	a, err := json.Marshal(trA.Spans())
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(trB.Spans())
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Errorf("span trails differ across same-seed runs:\nA: %s\nB: %s", a, b)
	}
	if len(trA.Spans()) == 0 {
		t.Fatal("traced run recorded no spans")
	}

	resJSON := func(r Result) string {
		out, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return string(out)
	}
	resNone, _, oNone := traceRun(t, nil)
	if resJSON(resA) != resJSON(resNone) || trailJSON(t, oA) != trailJSON(t, oNone) {
		t.Error("Result or event trail differs with tracer wired — tracing must be purely additive")
	}
	if resJSON(resA) != resJSON(resB) || trailJSON(t, oA) != trailJSON(t, oB) {
		t.Error("Result or event trail differs across same-seed traced runs")
	}

	// A different seed relabels the IDs but not the tree shape.
	_, trC, _ := traceRun(t, tracing.New(8))
	c, err := json.Marshal(trC.Spans())
	if err != nil {
		t.Fatal(err)
	}
	if string(a) == string(c) {
		t.Error("span trails identical across different seeds — IDs not seed-derived?")
	}
	if len(trC.Spans()) != len(trA.Spans()) {
		t.Errorf("span count differs across seeds: %d vs %d", len(trC.Spans()), len(trA.Spans()))
	}
}

// TestSpanTreeShape checks the causal structure of the simulated trail: each
// finished job owns a closed job.lifecycle root whose children cover
// admit → plan → place → … → complete/miss, the dropped job's tree ends at
// its drop verdict, and scheduler epochs record as standalone roots.
func TestSpanTreeShape(t *testing.T) {
	res, tr, _ := traceRun(t, tracing.New(7))

	byJob := map[string]map[string]int{}
	rootOf := map[string]tracing.Span{}
	epochs := 0
	for _, s := range tr.Spans() {
		if s.Name == tracing.SpanSchedEpoch {
			epochs++
			if s.Parent != 0 {
				t.Errorf("sched.epoch span has parent %d, want root", s.Parent)
			}
			continue
		}
		if s.JobID == "" {
			t.Errorf("non-epoch span %q has no job ID", s.Name)
			continue
		}
		if byJob[s.JobID] == nil {
			byJob[s.JobID] = map[string]int{}
		}
		byJob[s.JobID][s.Name]++
		if s.Name == tracing.SpanJobLifecycle {
			rootOf[s.JobID] = s
		} else if s.LSN != 0 {
			t.Errorf("sim span %s/%s carries LSN %d, want 0 (no journal)", s.JobID, s.Name, s.LSN)
		}
	}
	if epochs == 0 {
		t.Error("no sched.epoch spans recorded")
	}

	for _, jr := range res.Jobs {
		names := byJob[jr.ID]
		root, ok := rootOf[jr.ID]
		if !ok {
			t.Errorf("job %s has no lifecycle root", jr.ID)
			continue
		}
		if root.Open {
			t.Errorf("job %s lifecycle root left open", jr.ID)
		}
		if names[tracing.SpanAdmit] != 1 {
			t.Errorf("job %s has %d admit spans, want 1", jr.ID, names[tracing.SpanAdmit])
		}
		if jr.Dropped {
			if names[tracing.SpanPlace] != 0 || names[tracing.SpanComplete] != 0 {
				t.Errorf("dropped job %s has placement/terminal spans: %v", jr.ID, names)
			}
			continue
		}
		if names[tracing.SpanPlan] == 0 {
			t.Errorf("admitted job %s has no plan span", jr.ID)
		}
		if names[tracing.SpanPlace] == 0 {
			t.Errorf("admitted job %s has no place span", jr.ID)
		}
		want := tracing.SpanComplete
		if !jr.Met && !math.IsInf(jr.Deadline, 1) {
			want = tracing.SpanMiss
		}
		if jr.Finished && names[want] != 1 {
			t.Errorf("job %s terminal spans = %v, want one %s", jr.ID, names, want)
		}
		if root.End != jr.Completion {
			t.Errorf("job %s root ends at %g, completion at %g", jr.ID, root.End, jr.Completion)
		}
		// Children parent to the root.
		for _, s := range tr.Job(jr.ID) {
			if s.Name != tracing.SpanJobLifecycle && s.Parent != root.ID {
				t.Errorf("job %s span %s parents to %d, want root %d", jr.ID, s.Name, s.Parent, root.ID)
			}
		}
	}

	// The mid-run failure evicted someone: recovery spans recorded.
	recoveries := 0
	for _, m := range byJob {
		recoveries += m[tracing.SpanNodeDownRecover]
	}
	if recoveries == 0 {
		t.Error("no node-down.recover spans despite injected failure")
	}
}

// pointSpans is the catalog of spans derived from events; the rest are
// intervals (lifecycle roots, scheduler epochs).
var pointSpans = map[string]bool{
	tracing.SpanAdmit: true, tracing.SpanPlan: true, tracing.SpanPlace: true, tracing.SpanRescale: true,
	tracing.SpanMigrate: true, tracing.SpanNodeDownRecover: true, tracing.SpanComplete: true, tracing.SpanMiss: true,
}

// TestPointSpansMatchEvents: every point span of a traced run (with a node
// failure) has exactly one bus event at the same time, job and LSN whose
// fields are the span's attributes — a span is derived from its event, not
// written beside it.
func TestPointSpansMatchEvents(t *testing.T) {
	_, tr, o := traceRun(t, tracing.New(7))
	events := o.Bus.Since(0)
	seen := map[string]int{}
	for _, s := range tr.Spans() {
		if !pointSpans[s.Name] {
			continue
		}
		seen[s.Name]++
		n := 0
		for _, ev := range events {
			if ev.Time == s.Start && ev.JobID == s.JobID && ev.LSN == s.LSN && reflect.DeepEqual(ev.Fields, s.Attrs) {
				n++
			}
		}
		if n != 1 {
			t.Errorf("span %s/%s at %v matches %d bus events, want 1", s.JobID, s.Name, s.Start, n)
		}
	}
	// The three transitions that used to be spans without events.
	for _, name := range []string{tracing.SpanPlace, tracing.SpanRescale, tracing.SpanNodeDownRecover} {
		if seen[name] == 0 {
			t.Errorf("run recorded no %s span; the check needs one", name)
		}
	}
}
