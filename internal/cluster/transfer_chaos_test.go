package cluster

import (
	"testing"
	"time"

	"github.com/elasticflow/elasticflow/internal/agent"
	"github.com/elasticflow/elasticflow/internal/elastic"
	"github.com/elasticflow/elasticflow/internal/faults"
	"github.com/elasticflow/elasticflow/internal/frontdoor"
	"github.com/elasticflow/elasticflow/internal/serverless"
)

// TestMirrorSourceDiesMidTransfer is the two-failure overlap: the agent
// hosting a job crashes partway through streaming its checkpoint to the
// orchestrator — the mirror in flight is lost mid-chunk — and the job must
// still come back on a survivor from the previous completed mirror, pushed
// over the data plane. The failed transfer must neither corrupt the mirror
// store nor stall recovery.
func TestMirrorSourceDiesMidTransfer(t *testing.T) {
	const chunk = 16
	// Chunks per mirror fetch of the testTask checkpoint (Dim 4 linear →
	// 5 params), derived from the sized encoding so the schedule tracks it.
	size := elastic.Checkpoint{Params: make([]float64, 5)}.SizeBytes()
	perFetch := int((size + chunk - 1) / chunk)
	if perFetch < 2 {
		t.Fatalf("checkpoint spans %d chunk(s); the test needs a multi-chunk stream", perFetch)
	}

	clk := &fakeClock{t: time.Unix(0, 0)}
	// Mirror passes run at registration (step 0) and after each Reconcile. The
	// crash fires on the second chunk of the third fetch: two mirrors have
	// completed (step 0, then step 10), the third dies mid-stream.
	inj := faults.New(chaosSeed, []faults.Rule{
		{Kind: faults.Crash, Op: "ReadChunk", At: 2*perFetch + 2},
	})
	fd, o := newStack(t, clk, frontdoor.Options{}, Options{
		Faults: inj,
		Controller: agent.ControllerOptions{
			Seed:      chaosSeed,
			Sleep:     func(time.Duration) {},
			ChunkSize: chunk,
		},
		HeartbeatMisses: 2,
	})

	st, err := submit(fd, o, serverless.SubmitRequest{
		Model: "resnet50", GlobalBatch: 256, Iterations: 1e7, DeadlineSeconds: 1e6,
	}, testTask(3, 60))
	if err != nil {
		t.Fatal(err)
	}
	if st.State == "dropped" {
		t.Fatal("job dropped")
	}
	home0, _ := o.Home(st.ID)

	// Second mirror completes at step 10.
	if err := o.Step(10); err != nil {
		t.Fatal(err)
	}
	if err := o.Reconcile(); err != nil {
		t.Fatal(err)
	}

	// Third mirror pass: the source crashes mid-stream. Reconcile itself
	// must not fail — a lost mirror is best-effort — and the step-10
	// mirror must survive the torn fetch.
	if err := o.Step(5); err != nil {
		t.Fatal(err)
	}
	if err := o.Reconcile(); err != nil {
		t.Fatalf("reconcile failed on a best-effort mirror loss: %v", err)
	}
	o.mu.Lock()
	kept, ok := o.mirrors[st.ID]
	o.mu.Unlock()
	if !ok || kept.Step != 10 {
		t.Fatalf("mirror after torn fetch = %+v (ok=%v), want the previous step-10 mirror", kept, ok)
	}

	// The health monitor declares the crashed source down; recovery pushes
	// the step-10 mirror to the survivor over the data plane.
	var down []string
	for i := 0; i < 4 && len(down) == 0; i++ {
		down = o.HealthCheck()
	}
	if len(down) != 1 || down[0] != home0 {
		t.Fatalf("declared down: %v, want [%s]", down, home0)
	}
	home1, ok := o.Home(st.ID)
	if !ok || home1 == home0 {
		t.Fatalf("home after recovery = %q (ok=%v), want a survivor", home1, ok)
	}
	ts, err := o.TrainingStatus(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if ts.Step != 10 {
		t.Fatalf("restored at step %d, want 10 (the last completed mirror)", ts.Step)
	}

	// The restored job keeps training on the survivor.
	if err := o.Step(10); err != nil {
		t.Fatal(err)
	}
	if ts, err = o.TrainingStatus(st.ID); err != nil || ts.Step != 20 {
		t.Fatalf("post-recovery training: step %d, %v", ts.Step, err)
	}
}
