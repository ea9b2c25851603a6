package serverless

import (
	"encoding/json"
	"fmt"
	"testing"

	"github.com/elasticflow/elasticflow/internal/store"
)

// batchStep is one step of the batched-admission workload: advance the clock
// by Dt seconds, then submit a whole batch (or tick).
type batchStep struct {
	Dt   float64
	Tick bool
	Reqs []SubmitRequest
}

// batchScript mixes multi-tenant batches of every size and class with ticks
// long enough to retire jobs, so replay crosses batch records, completions
// and per-item drops.
func batchScript() []batchStep {
	return []batchStep{
		{Reqs: []SubmitRequest{
			{Tenant: "acme", Model: "resnet50", GlobalBatch: 128, Iterations: 50000, DeadlineSeconds: 4000},
			{Tenant: "acme", Model: "bert", GlobalBatch: 64, Iterations: 20000, DeadlineSeconds: 3000},
			{Tenant: "globex", Model: "gpt2", GlobalBatch: 128, Iterations: 30000, BestEffort: true},
		}},
		{Dt: 10, Reqs: []SubmitRequest{
			// Infeasible deadline: the drop verdict (and counter-offer) must
			// replay identically from inside a batch.
			{Tenant: "globex", Model: "vgg16", GlobalBatch: 64, Iterations: 1e9, DeadlineSeconds: 1},
		}},
		{Dt: 30, Tick: true},
		{Dt: 15, Reqs: []SubmitRequest{
			{Tenant: "initech", Model: "inception3", GlobalBatch: 64, Iterations: 40000, DeadlineSeconds: 2500, SoftDeadline: true},
			{Tenant: "acme", Model: "deepspeech2", GlobalBatch: 64, Iterations: 10000, DeadlineSeconds: 1500},
		}},
		{Dt: 400, Tick: true},
		{Dt: 1200, Tick: true},
		{Dt: 10, Reqs: []SubmitRequest{
			{Tenant: "globex", Model: "resnet50", GlobalBatch: 64, Iterations: 8000, DeadlineSeconds: 2000},
		}},
		{Dt: 900, Tick: true},
	}
}

// applyBatchOp runs one op and renders its outcome as a transcript line.
func applyBatchOp(t *testing.T, p *Platform, clk *stateClock, op batchStep) string {
	t.Helper()
	clk.Advance(op.Dt)
	var out string
	if op.Tick {
		p.Tick()
		out = "tick"
	} else {
		sts, err := p.SubmitBatch(op.Reqs)
		if err != nil {
			out = "batch-err:" + err.Error()
		} else {
			b, _ := json.Marshal(sts)
			out = "batch:" + string(b)
		}
	}
	cl, _ := json.Marshal(p.Cluster())
	usage, _ := json.Marshal(p.TenantUsage())
	return out + " cluster=" + string(cl) + " tenants=" + string(usage)
}

// TestBatchCrashRestartEquality holds batched admissions to the DESIGN.md
// §11 bar at EVERY crash prefix: transcript, final state, bus event trail
// (tenant+batch framing included) and span trail must be byte-identical to
// the uninterrupted run. The platform runs with a shard-style job prefix so
// recovered IDs exercise the front-door naming too.
func TestBatchCrashRestartEquality(t *testing.T) {
	ops := batchScript()
	opts := func(clk *stateClock, st *store.Store) Options {
		return Options{Clock: clk.Now, Store: st, JobPrefix: "s0-"}
	}

	refClk := newStateClock()
	refP, err := NewPlatform(Options{Clock: refClk.Now, JobPrefix: "s0-"})
	if err != nil {
		t.Fatal(err)
	}
	var wantLines []string
	for _, op := range ops {
		wantLines = append(wantLines, applyBatchOp(t, refP, refClk, op))
	}
	wantFinal, wantTrail, wantSpans := finalState(refP), eventTrail(refP), spanTrail(refP.Obs().Tracer())

	for k := 1; k < len(ops); k++ {
		t.Run(fmt.Sprintf("crash-at-%d", k), func(t *testing.T) {
			dir := t.TempDir()
			clk := newStateClock()
			st1, err := store.Open(dir, store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			p1, err := NewPlatform(opts(clk, st1))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < k; i++ {
				if got := applyBatchOp(t, p1, clk, ops[i]); got != wantLines[i] {
					t.Fatalf("pre-crash op %d diverged:\n got %s\nwant %s", i, got, wantLines[i])
				}
			}
			// Crash: abandon without Shutdown.
			st2, err := store.Open(dir, store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			p2, err := Recover(opts(clk, st2))
			if err != nil {
				t.Fatal(err)
			}
			for i := k; i < len(ops); i++ {
				if got := applyBatchOp(t, p2, clk, ops[i]); got != wantLines[i] {
					t.Fatalf("post-restart op %d diverged:\n got %s\nwant %s", i, got, wantLines[i])
				}
			}
			if got := finalState(p2); got != wantFinal {
				t.Fatalf("final state diverged:\n got %s\nwant %s", got, wantFinal)
			}
			if got := eventTrail(p2); got != wantTrail {
				t.Fatalf("event trail diverged:\n got %s\nwant %s", got, wantTrail)
			}
			if got := spanTrail(p2.Obs().Tracer()); got != wantSpans {
				t.Fatalf("span trail diverged:\n got %s\nwant %s", got, wantSpans)
			}
			if err := p2.Shutdown(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSubmitBatchBasics pins the non-durability-related batch semantics:
// verdict order matches arrival order, job IDs carry the prefix, one batch
// event frames the group, and an invalid item rejects the whole batch
// before any state changes.
func TestSubmitBatchBasics(t *testing.T) {
	clk := newStateClock()
	p, err := NewPlatform(Options{Clock: clk.Now, JobPrefix: "s3-"})
	if err != nil {
		t.Fatal(err)
	}
	sts, err := p.SubmitBatch([]SubmitRequest{
		{Tenant: "a", Model: "resnet50", GlobalBatch: 128, Iterations: 50000, DeadlineSeconds: 4000},
		{Tenant: "b", Model: "vgg16", GlobalBatch: 64, Iterations: 1e9, DeadlineSeconds: 1},
		{Tenant: "a", Model: "gpt2", GlobalBatch: 128, Iterations: 30000, BestEffort: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sts) != 3 {
		t.Fatalf("got %d verdicts, want 3", len(sts))
	}
	if sts[0].ID != "s3-job-0001" || sts[0].Tenant != "a" {
		t.Fatalf("verdict 0 = %+v, want prefixed ID and tenant a", sts[0])
	}
	if sts[1].State != "dropped" {
		t.Fatalf("infeasible item not dropped: %+v", sts[1])
	}
	if sts[2].State != "admitted" && sts[2].State != "running" {
		t.Fatalf("best-effort item not admitted: %+v", sts[2])
	}

	batches := 0
	for _, ev := range p.Obs().Bus.Since(1) {
		if ev.Kind == "batch" {
			batches++
			if size, _ := ev.Field("size"); size != "3" {
				t.Fatalf("batch event size = %s, want 3", size)
			}
			if tenants, _ := ev.Field("tenants"); tenants != "a,b" {
				t.Fatalf("batch event tenants = %s, want a,b", tenants)
			}
		}
	}
	if batches != 1 {
		t.Fatalf("got %d batch events, want 1", batches)
	}

	if _, err := p.SubmitBatch([]SubmitRequest{
		{Tenant: "a", Model: "resnet50", GlobalBatch: 128, Iterations: 50000, DeadlineSeconds: 4000},
		{Tenant: "a", Model: "no-such-model", GlobalBatch: 64, Iterations: 1, DeadlineSeconds: 1},
	}); err == nil {
		t.Fatal("batch with invalid item did not fail")
	}
	if got := len(p.List()); got != 3 {
		t.Fatalf("rejected batch mutated state: %d jobs, want 3", got)
	}

	usage := p.TenantUsage()
	if usage["a"] == 0 {
		t.Fatalf("tenant a shows no usage: %v", usage)
	}
}
