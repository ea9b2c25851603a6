package cluster

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/elasticflow/elasticflow/internal/frontdoor"
	"github.com/elasticflow/elasticflow/internal/obs/tracing"
	"github.com/elasticflow/elasticflow/internal/serverless"
)

// newTracedOrchestrator builds the stack and returns the shard's tracer —
// the front door gives every shard one.
func newTracedOrchestrator(t *testing.T) (*frontdoor.FrontDoor, *Orchestrator, *fakeClock, *tracing.Tracer) {
	t.Helper()
	clk := &fakeClock{t: time.Unix(0, 0)}
	fd, o := newStack(t, clk, frontdoor.Options{}, Options{})
	return fd, o, clk, fd.Shard(0).Obs().Tracer()
}

// TestClusterSpans drives the full stack with a tracer wired and checks the
// orchestrator-level spans: every reconciliation mirror records a
// checkpoint.mirror span under the job's lifecycle root, and every health
// probe records a heartbeat span.
func TestClusterSpans(t *testing.T) {
	fd, o, clk, tr := newTracedOrchestrator(t)

	st, err := submit(fd, o, serverless.SubmitRequest{
		Model: "resnet50", GlobalBatch: 64, Iterations: 1e7, DeadlineSeconds: 1e6,
	}, testTask(7, 120))
	if err != nil {
		t.Fatal(err)
	}
	if st.State == "dropped" {
		t.Fatal("job dropped")
	}
	clk.advance(time.Second)
	if err := o.Reconcile(); err != nil {
		t.Fatal(err)
	}
	o.HealthCheck()

	var root tracing.Span
	names := map[string]int{}
	for _, s := range tr.Spans() {
		names[s.Name]++
		if s.Name == tracing.SpanJobLifecycle && s.JobID == st.ID {
			root = s
		}
		if s.Name == tracing.SpanHeartbeat && s.JobID != "" {
			t.Errorf("heartbeat span bound to job %q", s.JobID)
		}
	}
	if root.ID == 0 {
		t.Fatalf("no lifecycle root for %s; spans: %v", st.ID, names)
	}
	if !root.Open {
		t.Error("lifecycle root closed while the job is still running")
	}
	if names[tracing.SpanCheckpointMirror] == 0 {
		t.Errorf("no checkpoint.mirror spans after reconcile: %v", names)
	}
	if names[tracing.SpanHeartbeat] != 2 {
		t.Errorf("heartbeat spans = %d, want one per live agent (2)", names[tracing.SpanHeartbeat])
	}
	for _, s := range tr.Spans() {
		if s.Name == tracing.SpanCheckpointMirror && s.JobID == st.ID && s.Parent != root.ID {
			t.Errorf("mirror span parents to %d, want lifecycle root %d", s.Parent, root.ID)
		}
	}
}

// TestConcurrentSpanEmission hammers one shared tracer from the health
// monitor's heartbeat loop and concurrent platform mutations — the
// interleaving the live deployment produces. Run under -race (CI's
// test-race job does) this is the data-race check for span emission.
func TestConcurrentSpanEmission(t *testing.T) {
	fd, o, _, tr := newTracedOrchestrator(t)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			o.HealthCheck()
			time.Sleep(time.Millisecond)
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				st, err := submit(fd, o, serverless.SubmitRequest{
					Model: "resnet50", GlobalBatch: 64, Iterations: 1e7,
					DeadlineSeconds: 1e6, User: fmt.Sprintf("w-%d", w),
				}, testTask(int64(w*100+i), 60))
				if err != nil {
					t.Error(err)
					return
				}
				if st.State != "dropped" {
					if err := fd.Cancel(st.ID); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	if tr.Count() == 0 {
		t.Fatal("no spans recorded")
	}
	// Every begun span is accounted for: closed, still open, or evicted.
	spans := uint64(len(tr.Spans())) + tr.Dropped()
	if spans != tr.Count() {
		t.Errorf("span accounting: %d recorded+dropped, %d begun", spans, tr.Count())
	}
}
