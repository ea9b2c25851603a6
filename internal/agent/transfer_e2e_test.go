package agent

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"github.com/elasticflow/elasticflow/internal/faults"
	"github.com/elasticflow/elasticflow/internal/obs"
	"github.com/elasticflow/elasticflow/internal/obs/tracing"
)

// The end-to-end data-plane tests: checkpoints crossing real net/rpc
// connections in small chunks while the fault injector drops streams and
// corrupts payloads. The invariant throughout is resume-or-refuse — a
// transfer either completes byte-identical to the source or fails loudly;
// damaged bytes are never applied.

// transferController builds a controller with a tiny chunk size (so a
// test checkpoint spans many frames) under the given fault schedule.
func transferController(o *obs.Obs, rules []faults.Rule) *Controller {
	inj := faults.New(1, rules).WithObs(o)
	return NewControllerWith(ControllerOptions{
		Dial:      inj.WrapDial(DefaultDial),
		Sleep:     noSleep,
		Obs:       o,
		ChunkSize: 8,
	})
}

func TestFetchCheckpointResumesAfterDropAndCorrupt(t *testing.T) {
	// A dropped stream resumes from the last verified chunk; a corrupted
	// chunk is caught by CRC and re-requested. The fetched checkpoint is
	// byte-identical to the source either way.
	o := obs.NewDefault()
	c := transferController(o, []faults.Rule{
		{Kind: faults.Drop, Op: "ReadChunk", At: 2},
		{Kind: faults.Corrupt, Op: "ReadChunk", At: 4},
	})
	defer c.Close()
	a, addr := startAgent(t, "A")
	if err := c.Connect("A", addr); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Launch("j", testSpec(), "A", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Step("j", 10); err != nil {
		t.Fatal(err)
	}
	want := checkpointOn(t, a, "j")

	ck, stats, err := c.FetchCheckpoint("j", false)
	if err != nil {
		t.Fatalf("fetch under drop+corrupt schedule: %v", err)
	}
	if !bytes.Equal(ck.EncodeBytes(), want.EncodeBytes()) {
		t.Fatal("fetched checkpoint is not byte-identical to the source")
	}
	if stats.Resumes != 1 {
		t.Errorf("Resumes = %d, want 1 (one dropped stream)", stats.Resumes)
	}
	if stats.Corruptions != 1 {
		t.Errorf("Corruptions = %d, want 1 (one tampered chunk)", stats.Corruptions)
	}
	if stats.Retries < 2 {
		t.Errorf("Retries = %d, want >= 2 (drop + corrupt each retried)", stats.Retries)
	}
	if stats.Bytes != int64(len(want.EncodeBytes())) {
		t.Errorf("Bytes = %d, want %d", stats.Bytes, len(want.EncodeBytes()))
	}
}

func TestResumeStagedSurvivesDropAndCorruptOnPush(t *testing.T) {
	// The push direction: a dropped stream re-begins at the receiver's
	// committed offset, a tampered chunk is refused by the receiver's CRC
	// and resent, and the staged checkpoint launches a byte-identical job.
	o := obs.NewDefault()
	c := transferController(o, []faults.Rule{
		{Kind: faults.Drop, Op: "PushChunk", At: 2},
		{Kind: faults.Corrupt, Op: "PushChunk", At: 4},
	})
	defer c.Close()
	if err := c.Connect("A", liveAgent(t, "A")); err != nil {
		t.Fatal(err)
	}
	b, addrB := startAgent(t, "B")
	if err := c.Connect("B", addrB); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Launch("j", testSpec(), "A", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Step("j", 10); err != nil {
		t.Fatal(err)
	}
	ck, err := c.Stop("j")
	if err != nil {
		t.Fatal(err)
	}

	rep, err := c.ResumeStaged("j", testSpec(), "B", 2, ck, false)
	if err != nil {
		t.Fatalf("staged resume under drop+corrupt schedule: %v", err)
	}
	if rep.Step != 10 {
		t.Fatalf("resumed at step %d, want 10", rep.Step)
	}
	got := checkpointOn(t, b, "j")
	if !bytes.Equal(got.EncodeBytes(), ck.EncodeBytes()) {
		t.Fatal("staged checkpoint is not byte-identical to the pushed one")
	}
	if st, err := c.Step("j", 5); err != nil || st.Step != 15 {
		t.Fatalf("step after staged resume = %+v, %v", st, err)
	}
}

func TestMigrateChunkedByteIdenticalUnderFaults(t *testing.T) {
	// Cross-agent migration rides the data plane end to end: stop and pin
	// on the source, chunked fetch, chunked push, staged launch — with drops and
	// corruption on both directions. The job lands byte-identical and
	// keeps training; every injected fault shows up in ef_transfer_*.
	o := obs.New(obs.Options{Tracer: tracing.New(42)})
	c := transferController(o, []faults.Rule{
		{Kind: faults.Drop, Op: "ReadChunk", At: 3},
		{Kind: faults.Corrupt, Op: "ReadChunk", At: 5},
		{Kind: faults.Drop, Op: "PushChunk", At: 2},
		{Kind: faults.Corrupt, Op: "PushChunk", At: 4},
	})
	defer c.Close()
	src, addrA := startAgent(t, "A")
	if err := c.Connect("A", addrA); err != nil {
		t.Fatal(err)
	}
	dst, addrB := startAgent(t, "B")
	if err := c.Connect("B", addrB); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Launch("j", testSpec(), "A", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Step("j", 10); err != nil {
		t.Fatal(err)
	}
	want := checkpointOn(t, src, "j")

	rep, err := c.Migrate("j", "B", 2)
	if err != nil {
		t.Fatalf("chunked migration under faults: %v", err)
	}
	if rep.Step != 10 {
		t.Fatalf("migrated job resumed at step %d, want 10", rep.Step)
	}
	if home, _ := c.Home("j"); home != "B" {
		t.Fatalf("home after migration = %q, want B", home)
	}
	got := checkpointOn(t, dst, "j")
	if !bytes.Equal(got.EncodeBytes(), want.EncodeBytes()) {
		t.Fatal("migrated checkpoint is not byte-identical to the source")
	}
	if st, err := c.Step("j", 5); err != nil || st.Step != 15 {
		t.Fatalf("step after migration = %+v, %v", st, err)
	}

	var b strings.Builder
	if err := o.Metrics.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	metrics := b.String()
	for _, want := range []string{
		`ef_transfer_bytes_total{dir="fetch"}`,
		`ef_transfer_bytes_total{dir="push"}`,
		"ef_transfer_resumes_total 2",
		"ef_transfer_corruptions_total 2",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// Both legs traced as checkpoint.transfer spans under the job.
	spans := 0
	for _, s := range o.Tracer().Spans() {
		if s.Name == tracing.SpanCheckpointTransfer && s.JobID == "j" {
			spans++
		}
	}
	if spans != 2 {
		t.Errorf("checkpoint.transfer spans = %d, want 2 (fetch + push)", spans)
	}
}

func TestFetchCheckpointRefusesPersistentCorruption(t *testing.T) {
	// When every read of one chunk arrives damaged, the transfer exhausts
	// its retry budget and fails — it never assembles damaged bytes.
	o := obs.NewDefault()
	c := transferController(o, []faults.Rule{
		{Kind: faults.Corrupt, Op: "ReadChunk", After: 2},
	})
	defer c.Close()
	if err := c.Connect("A", liveAgent(t, "A")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Launch("j", testSpec(), "A", 1); err != nil {
		t.Fatal(err)
	}
	_, stats, err := c.FetchCheckpoint("j", false)
	if err == nil {
		t.Fatal("fetch of a persistently corrupted stream succeeded")
	}
	if stats.Corruptions == 0 {
		t.Error("no corruption counted on a corrupted stream")
	}
	// The job is untouched: OpenTransfer snapshots, it does not stop.
	if st, err := c.Step("j", 5); err != nil || st.Step != 5 {
		t.Fatalf("job damaged by a failed fetch: %+v, %v", st, err)
	}
}

// transferBytes reads ef_transfer_bytes_total{dir} off o's exposition.
func transferBytes(t *testing.T, o *obs.Obs, dir string) float64 {
	t.Helper()
	var b strings.Builder
	if err := o.Metrics.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	prefix := `ef_transfer_bytes_total{dir="` + dir + `"} `
	for _, line := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(line, prefix); ok {
			n, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	return 0
}

// TestCheckpointsMoveOnlyOverTheDataPlane: every checkpoint that leaves or
// enters an agent is counted by the data plane — a suspend and a mirror as
// fetched bytes, a resume as pushed bytes — and an in-place rescale moves
// none while the trainer keeps its step and parameters.
func TestCheckpointsMoveOnlyOverTheDataPlane(t *testing.T) {
	o := obs.NewDefault()
	c := transferController(o, nil)
	defer c.Close()
	a, addr := startAgent(t, "A")
	if err := c.Connect("A", addr); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Launch("j", testSpec(), "A", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Step("j", 10); err != nil {
		t.Fatal(err)
	}

	fetched, pushed := transferBytes(t, o, "fetch"), transferBytes(t, o, "push")
	before := checkpointOn(t, a, "j")
	rep, err := c.Rescale("j", 4)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Workers != 4 || rep.Step != 10 {
		t.Fatalf("rescale reply %+v, want 4 workers at step 10", rep)
	}
	if !bytes.Equal(checkpointOn(t, a, "j").EncodeBytes(), before.EncodeBytes()) {
		t.Fatal("in-place rescale changed the trainer's state")
	}
	if f, p := transferBytes(t, o, "fetch"), transferBytes(t, o, "push"); f != fetched || p != pushed {
		t.Fatalf("in-place rescale moved bytes: fetch %v→%v, push %v→%v", fetched, f, pushed, p)
	}

	if _, _, err := c.FetchCheckpoint("j", false); err != nil {
		t.Fatal(err)
	}
	if f := transferBytes(t, o, "fetch"); f <= fetched {
		t.Fatalf("mirror fetched no bytes: %v→%v", fetched, f)
	}
	fetched = transferBytes(t, o, "fetch")

	ck, err := c.Stop("j")
	if err != nil {
		t.Fatal(err)
	}
	if f := transferBytes(t, o, "fetch"); f <= fetched {
		t.Fatalf("suspend fetched no bytes: %v→%v", fetched, f)
	}

	if _, err := c.ResumeStaged("j", testSpec(), "A", 2, ck, false); err != nil {
		t.Fatal(err)
	}
	if p := transferBytes(t, o, "push"); p <= pushed {
		t.Fatalf("resume pushed no bytes: %v→%v", pushed, p)
	}
	if got := checkpointOn(t, a, "j"); got.Step != 10 || !bytes.Equal(got.EncodeBytes(), before.EncodeBytes()) {
		t.Fatalf("resumed at step %d, want the suspended state at step 10", got.Step)
	}
}
