package serverless

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"github.com/elasticflow/elasticflow/internal/obs"
	"github.com/elasticflow/elasticflow/internal/obs/tracing"
	"github.com/elasticflow/elasticflow/internal/store"
)

// tracedOptions wires a fresh seed-7 tracer into platform options — the
// crash tests hand each incarnation its own tracer so replay must rebuild
// the trail from the journal alone.
func tracedOptions(clk *stateClock, st *store.Store) (Options, *tracing.Tracer) {
	tr := tracing.New(7)
	return Options{
		Clock: clk.Now,
		Store: st,
		Obs:   obs.New(obs.Options{Clock: clk.Now, Tracer: tr}),
	}, tr
}

// spanTrail renders the tracer's full span trail, IDs and LSNs included.
func spanTrail(tr *tracing.Tracer) string {
	b, err := json.Marshal(tr.Spans())
	if err != nil {
		panic(err)
	}
	return string(b)
}

// TestCrashRestartSpanEquality extends the crash-restart equality bar to
// the span trail: recovery replays the journal through the same apply
// functions that emitted the original spans, against a fresh same-seed
// tracer, so the rebuilt trail — span IDs, tree shape, times, and WAL LSN
// stamps — must be byte-identical to the uninterrupted run's.
func TestCrashRestartSpanEquality(t *testing.T) {
	ops := crashScript()

	// Reference: uninterrupted journaled run.
	refDir := t.TempDir()
	refClk := newStateClock()
	refStore, err := store.Open(refDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	refOpts, refTr := tracedOptions(refClk, refStore)
	ref, err := NewPlatform(refOpts)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		applyOp(t, ref, refClk, op)
	}
	want := spanTrail(refTr)
	if len(refTr.Spans()) == 0 {
		t.Fatal("reference run recorded no spans")
	}

	for _, k := range []int{1, 5, 9, len(ops) - 1} {
		t.Run(fmt.Sprintf("crash-at-%d", k), func(t *testing.T) {
			dir := t.TempDir()
			clk := newStateClock()
			st1, err := store.Open(dir, store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			opts1, _ := tracedOptions(clk, st1)
			p1, err := NewPlatform(opts1)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < k; i++ {
				applyOp(t, p1, clk, ops[i])
			}
			// Crash: abandon p1 and its tracer entirely.

			st2, err := store.Open(dir, store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			opts2, tr2 := tracedOptions(clk, st2)
			p2, err := Recover(opts2)
			if err != nil {
				t.Fatal(err)
			}
			for i := k; i < len(ops); i++ {
				applyOp(t, p2, clk, ops[i])
			}
			if got := spanTrail(tr2); got != want {
				t.Errorf("span trail diverged after crash at %d:\n got %s\nwant %s", k, got, want)
			}
			if err := p2.Shutdown(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSpanLSNsMatchJournal is the flight-recorder correlation check: every
// LSN a span carries must name a real mutation record in the write-ahead
// journal, of the kind that span records — an admit span points at the
// submit record, a node-down.recover span at the node-down record.
func TestSpanLSNsMatchJournal(t *testing.T) {
	dir := t.TempDir()
	clk := newStateClock()
	st1, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	opts, tr := tracedOptions(clk, st1)
	p, err := NewPlatform(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range crashScript() {
		applyOp(t, p, clk, op)
	}
	// Abandon without Shutdown so the journal keeps every record (a final
	// snapshot would truncate it), then read it back.
	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	kindAt := make(map[uint64]string)
	for _, rec := range st2.RecoveredTail() {
		kindAt[rec.LSN] = rec.Kind
	}
	if len(kindAt) == 0 {
		t.Fatal("journal is empty")
	}

	// Which journal-record kinds may stand behind each span name.
	wantKinds := map[string]map[string]bool{
		tracing.SpanAdmit:           {recSubmit: true},
		tracing.SpanNodeDownRecover: {recNodeDown: true},
		// Placements, rescales, migrations, and terminal spans are emitted
		// by whichever mutation triggered the replan.
		tracing.SpanPlace:        {recSubmit: true, recCancel: true, recNodeDown: true, recNodeUp: true, recAdvance: true},
		tracing.SpanRescale:      {recSubmit: true, recCancel: true, recNodeDown: true, recNodeUp: true, recAdvance: true},
		tracing.SpanMigrate:      {recSubmit: true, recCancel: true, recNodeDown: true, recNodeUp: true, recAdvance: true},
		tracing.SpanComplete:     {recAdvance: true, recSubmit: true, recCancel: true, recNodeDown: true, recNodeUp: true},
		tracing.SpanMiss:         {recAdvance: true, recSubmit: true, recCancel: true, recNodeDown: true, recNodeUp: true},
		tracing.SpanJobLifecycle: {recSubmit: true, recCancel: true, recAdvance: true, recNodeDown: true, recNodeUp: true},
	}
	stamped := 0
	for _, s := range tr.Spans() {
		if s.LSN == 0 {
			continue
		}
		stamped++
		kind, ok := kindAt[s.LSN]
		if !ok {
			t.Errorf("span %s/%s stamped with LSN %d not present in the journal", s.JobID, s.Name, s.LSN)
			continue
		}
		if allowed := wantKinds[s.Name]; allowed != nil && !allowed[kind] {
			t.Errorf("span %s/%s points at a %q record (LSN %d)", s.JobID, s.Name, kind, s.LSN)
		}
	}
	if stamped == 0 {
		t.Fatal("no span carries a journal LSN")
	}
}

// TestPointSpansMatchEvents is the live half of the simulator's check of the
// same name: over the journaled crash script, every point span has exactly
// one bus event at the same time, job and journal LSN whose fields are the
// span's attributes.
func TestPointSpansMatchEvents(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	clk := newStateClock()
	opts, tr := tracedOptions(clk, st)
	p, err := NewPlatform(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range crashScript() {
		applyOp(t, p, clk, op)
	}
	events := p.Obs().Bus.Since(0)
	point := map[string]bool{
		tracing.SpanAdmit: true, tracing.SpanPlan: true, tracing.SpanPlace: true, tracing.SpanRescale: true,
		tracing.SpanMigrate: true, tracing.SpanNodeDownRecover: true, tracing.SpanComplete: true, tracing.SpanMiss: true,
	}
	stamped := 0
	for _, s := range tr.Spans() {
		if !point[s.Name] {
			continue
		}
		if s.LSN != 0 {
			stamped++
		}
		n := 0
		for _, ev := range events {
			if ev.Time == s.Start && ev.JobID == s.JobID && ev.LSN == s.LSN && reflect.DeepEqual(ev.Fields, s.Attrs) {
				n++
			}
		}
		if n != 1 {
			t.Errorf("span %s/%s at %v (LSN %d) matches %d bus events, want 1", s.JobID, s.Name, s.Start, s.LSN, n)
		}
	}
	if stamped == 0 {
		t.Fatal("no point span carries a journal LSN")
	}
}

// TestNoIntervalSpanLeaks runs the crash script and one admission batch (the
// frontdoor.batch span's Begin site) under a tracer: afterwards the only open
// spans are the lifecycle roots of jobs still active. errlint catches a Ref
// discarded at its Begin; this catches one kept and never ended.
func TestNoIntervalSpanLeaks(t *testing.T) {
	clk := newStateClock()
	opts, tr := tracedOptions(clk, nil)
	p, err := NewPlatform(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range crashScript() {
		applyOp(t, p, clk, op)
	}
	req := SubmitRequest{Model: "resnet50", GlobalBatch: 64, Iterations: 20000, DeadlineSeconds: 4000}
	if _, err := p.SubmitBatch([]SubmitRequest{req, req}); err != nil {
		t.Fatal(err)
	}
	active := map[string]bool{}
	for _, st := range p.List() {
		active[st.ID] = st.State != "completed" && st.State != "dropped" && st.State != "cancelled"
	}
	batches := 0
	for _, s := range tr.Spans() {
		if s.Name == tracing.SpanFrontdoorBatch {
			batches++
		}
		if s.Open && (s.Name != tracing.SpanJobLifecycle || !active[s.JobID]) {
			t.Errorf("span %s (job %q) left open", s.Name, s.JobID)
		}
	}
	if batches != 1 {
		t.Errorf("got %d frontdoor.batch spans, want 1", batches)
	}
}

// TestDebugTraceEndpoint: GET /debug/trace serves the span trail as Chrome
// trace-event JSON, ?job= filters to one tree, and a tracerless platform
// reports 404.
func TestDebugTraceEndpoint(t *testing.T) {
	clk := newStateClock()
	opts, _ := tracedOptions(clk, nil)
	p, err := NewPlatform(opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(p))
	defer srv.Close()

	st := submitOne(t, p)
	submitOne(t, p)

	resp, err := http.Get(srv.URL + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var all struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Args struct {
				Job string `json:"job,omitempty"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&all); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(all.TraceEvents) == 0 {
		t.Fatal("empty trace")
	}
	sawLifecycle := false
	for _, ev := range all.TraceEvents {
		if ev.Ph != "X" {
			t.Errorf("event phase %q, want X", ev.Ph)
		}
		if ev.Name == tracing.SpanJobLifecycle {
			sawLifecycle = true
		}
	}
	if !sawLifecycle {
		t.Error("no job.lifecycle events in the trace")
	}

	var one struct {
		TraceEvents []struct {
			Args struct {
				Job string `json:"job"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	getJSON(t, srv.URL+"/debug/trace?job="+st.ID, &one)
	if len(one.TraceEvents) == 0 {
		t.Fatal("job filter returned nothing")
	}
	for _, ev := range one.TraceEvents {
		if ev.Args.Job != st.ID {
			t.Errorf("filtered trace leaked job %q", ev.Args.Job)
		}
	}

	// No tracer → 404.
	bare, _ := newTestPlatform(t)
	bareSrv := httptest.NewServer(Handler(bare))
	defer bareSrv.Close()
	resp, err = http.Get(bareSrv.URL + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("tracerless /debug/trace status = %d, want 404", resp.StatusCode)
	}
}

// TestDebugEventsPaging: limit= truncates the page and hands back a cursor
// that resumes exactly where the page stopped.
func TestDebugEventsPaging(t *testing.T) {
	p, _ := newTestPlatform(t)
	srv := httptest.NewServer(Handler(p))
	defer srv.Close()

	for i := 0; i < 3; i++ {
		submitOne(t, p)
	}
	var full EventsPage
	getJSON(t, srv.URL+"/debug/events", &full)
	if len(full.Events) < 4 {
		t.Fatalf("want at least 4 events, got %d", len(full.Events))
	}

	// Walk the log two events at a time; the pages must concatenate to the
	// full log.
	var walked []obs.Event
	cursor := uint64(0)
	for i := 0; i < 100; i++ {
		var page EventsPage
		getJSON(t, fmt.Sprintf("%s/debug/events?since=%d&limit=2", srv.URL, cursor), &page)
		if len(page.Events) == 0 {
			break
		}
		if len(page.Events) > 2 {
			t.Fatalf("limit=2 returned %d events", len(page.Events))
		}
		walked = append(walked, page.Events...)
		if page.Next != page.Events[len(page.Events)-1].Seq {
			t.Fatalf("page cursor %d != last returned seq %d", page.Next, page.Events[len(page.Events)-1].Seq)
		}
		cursor = page.Next
	}
	if len(walked) != len(full.Events) {
		t.Fatalf("paged walk saw %d events, full log has %d", len(walked), len(full.Events))
	}
	for i := range walked {
		if walked[i].Seq != full.Events[i].Seq {
			t.Errorf("page order diverged at %d: seq %d vs %d", i, walked[i].Seq, full.Events[i].Seq)
		}
	}

	// Bad limits are client errors.
	for _, q := range []string{"limit=0", "limit=-1", "limit=banana"} {
		resp, err := http.Get(srv.URL + "/debug/events?" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s status = %d, want 400", q, resp.StatusCode)
		}
	}
}
