package serverless

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/elasticflow/elasticflow/internal/obs"
	"github.com/elasticflow/elasticflow/internal/topology"
)

// fakeClock lets tests advance platform time deterministically.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestPlatform(t *testing.T) (*Platform, *fakeClock) {
	t.Helper()
	clk := &fakeClock{t: time.Unix(0, 0)}
	p, err := NewPlatform(Options{
		Topology: topology.Config{Servers: 2, GPUsPerServer: 8},
		Clock:    clk.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p, clk
}

func TestSubmitValidation(t *testing.T) {
	p, _ := newTestPlatform(t)
	cases := []SubmitRequest{
		{Model: "nope", GlobalBatch: 64, Iterations: 100, DeadlineSeconds: 3600},
		{Model: "resnet50", GlobalBatch: 99, Iterations: 100, DeadlineSeconds: 3600},
		{Model: "resnet50", GlobalBatch: 64, Iterations: 0, DeadlineSeconds: 3600},
		{Model: "resnet50", GlobalBatch: 64, Iterations: 100, DeadlineSeconds: 0},
	}
	for i, req := range cases {
		if _, err := p.Submit(req); err == nil {
			t.Errorf("case %d: invalid request accepted", i)
		}
	}
}

func TestSubmitAdmitAndRun(t *testing.T) {
	p, clk := newTestPlatform(t)
	st, err := p.Submit(SubmitRequest{Model: "resnet50", GlobalBatch: 128, Iterations: 10000, DeadlineSeconds: 7200})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "running" && st.State != "admitted" {
		t.Fatalf("state=%s want running/admitted", st.State)
	}
	if st.GPUs == 0 {
		t.Error("admitted job got no GPUs on an idle cluster")
	}
	if st.LocalBatch*st.GPUs != 128 {
		t.Errorf("local batch %d × %d GPUs ≠ global batch 128", st.LocalBatch, st.GPUs)
	}
	if st.Placement == "" {
		t.Error("running job has no placement")
	}
	// Advance past the predicted completion.
	clk.advance(2 * time.Hour)
	got, err := p.Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != "completed" {
		t.Errorf("state=%s want completed after 2h", got.State)
	}
	cs := p.Cluster()
	if cs.FreeGPUs != cs.TotalGPUs {
		t.Errorf("GPUs not released after completion: %d free of %d", cs.FreeGPUs, cs.TotalGPUs)
	}
}

func TestSubmitImpossibleDeadlineDropped(t *testing.T) {
	p, _ := newTestPlatform(t)
	st, err := p.Submit(SubmitRequest{Model: "gpt2", GlobalBatch: 256, Iterations: 1e9, DeadlineSeconds: 60})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "dropped" {
		t.Errorf("state=%s want dropped (deadline unsatisfiable)", st.State)
	}
}

func TestBestEffortAdmitted(t *testing.T) {
	p, _ := newTestPlatform(t)
	st, err := p.Submit(SubmitRequest{Model: "bert", GlobalBatch: 64, Iterations: 1e7, BestEffort: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.Class != "best-effort" || st.State == "dropped" {
		t.Errorf("best-effort submission: class=%s state=%s", st.Class, st.State)
	}
	if st.Deadline != 0 {
		t.Errorf("best-effort job has deadline %v", st.Deadline)
	}
}

// TestListNewestFirstPastJob9999 pins List's order where the zero-padded
// sequence number gains a digit: job-10000 is newer than job-9999, though it
// sorts before it as a string.
func TestListNewestFirstPastJob9999(t *testing.T) {
	p, _ := newTestPlatform(t)
	p.mu.Lock()
	p.seq = 9998
	p.mu.Unlock()
	for i := 0; i < 3; i++ {
		if _, err := p.Submit(SubmitRequest{Model: "resnet50", GlobalBatch: 128, Iterations: 100, BestEffort: true}); err != nil {
			t.Fatal(err)
		}
	}
	var ids []string
	for _, st := range p.List() {
		ids = append(ids, st.ID)
	}
	if got, want := strings.Join(ids, " "), "job-10001 job-10000 job-9999"; got != want {
		t.Fatalf("List order = %s, want %s", got, want)
	}
}

func TestCancelFreesGPUs(t *testing.T) {
	p, _ := newTestPlatform(t)
	st, err := p.Submit(SubmitRequest{Model: "resnet50", GlobalBatch: 128, Iterations: 1e8, DeadlineSeconds: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	cs := p.Cluster()
	if cs.FreeGPUs != cs.TotalGPUs {
		t.Errorf("cancel did not free GPUs: %d/%d", cs.FreeGPUs, cs.TotalGPUs)
	}
	if err := p.Cancel("nonexistent"); err == nil {
		t.Error("cancel of unknown job succeeded")
	}
}

// TestCancelledStatusHoldsNoGPUs: a cancelled job's status, alone and in the
// job list, shows no workers, placement or estimated finish.
func TestCancelledStatusHoldsNoGPUs(t *testing.T) {
	p, _ := newTestPlatform(t)
	st, err := p.Submit(SubmitRequest{Model: "resnet50", GlobalBatch: 128, Iterations: 1e8, DeadlineSeconds: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	if st.GPUs == 0 || st.EstimatedDone == 0 {
		t.Fatalf("lone job is not running before the cancel: %+v", st)
	}
	if err := p.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	got, err := p.Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range append(p.List(), got) {
		if s.State != "cancelled" || s.GPUs != 0 || s.LocalBatch != 0 || s.EstimatedDone != 0 || s.Placement != "" {
			t.Errorf("cancelled job status = %+v, want cancelled with no GPUs, local batch, placement or estimated_done", s)
		}
	}
}

func TestElasticDownscaleOnContention(t *testing.T) {
	p, clk := newTestPlatform(t)
	first, err := p.Submit(SubmitRequest{Model: "resnet50", GlobalBatch: 256, Iterations: 5e6, DeadlineSeconds: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	if first.GPUs < 8 {
		t.Fatalf("lone job got %d GPUs, expected generous expansion", first.GPUs)
	}
	clk.advance(time.Minute)
	// A tight-deadline job arrives; the first job must shrink.
	second, err := p.Submit(SubmitRequest{Model: "vgg16", GlobalBatch: 256, Iterations: 50000, DeadlineSeconds: 1800})
	if err != nil {
		t.Fatal(err)
	}
	if second.State == "dropped" {
		t.Skip("second job not admissible in this configuration")
	}
	got, err := p.Get(first.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.GPUs+second.GPUs > 16 {
		t.Errorf("overcommitted: %d + %d > 16", got.GPUs, second.GPUs)
	}
}

// TestFrozenJobStatusWaitsOutTheFreeze: a running job in the middle of a
// rescale reports its finish after the freeze — FrozenUntil plus the
// remaining iterations at its new throughput — not from the last tick.
func TestFrozenJobStatusWaitsOutTheFreeze(t *testing.T) {
	p, clk := newTestPlatform(t)
	first, err := p.Submit(SubmitRequest{Model: "resnet50", GlobalBatch: 256, Iterations: 5e6, DeadlineSeconds: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	clk.advance(time.Minute)
	// A tight-deadline arrival shrinks the first job: a charged rescale.
	if _, err := p.Submit(SubmitRequest{Model: "vgg16", GlobalBatch: 256, Iterations: 50000, DeadlineSeconds: 1800}); err != nil {
		t.Fatal(err)
	}
	got, err := p.Get(first.ID)
	if err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	j := p.all[first.ID]
	frozen, tick, rem, tput := j.FrozenUntil, p.lastTick, j.RemainingIters(), j.Throughput(j.GPUs)
	p.mu.Unlock()
	if got.GPUs == 0 || frozen <= tick {
		t.Fatalf("first job is not running inside a freeze: gpus %d, frozen until %v at tick %v", got.GPUs, frozen, tick)
	}
	if want := frozen + rem/tput; got.EstimatedDone != want {
		t.Errorf("EstimatedDone = %v, want FrozenUntil + remaining/tput = %v (from the last tick: %v)", got.EstimatedDone, want, tick+rem/tput)
	}
}

// TestHTTPEndToEnd drives the shard plane's read routes against a platform
// with a job on it; the job routes themselves are the front door's.
func TestHTTPEndToEnd(t *testing.T) {
	p, _ := newTestPlatform(t)
	if _, err := p.Submit(SubmitRequest{Model: "resnet50", GlobalBatch: 64, Iterations: 5000, DeadlineSeconds: 3600}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(p))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	var cs ClusterStatus
	if err := json.NewDecoder(resp.Body).Decode(&cs); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if cs.TotalGPUs != 16 || cs.Running != 1 || cs.FreeGPUs == cs.TotalGPUs {
		t.Errorf("cluster = %+v, want 16 GPUs and the job running on some", cs)
	}
}

func TestHTTPErrors(t *testing.T) {
	p, _ := newTestPlatform(t)
	srv := httptest.NewServer(Handler(p))
	defer srv.Close()

	// Method not allowed.
	req, _ := http.NewRequest(http.MethodPut, srv.URL+"/v1/cluster", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("PUT status=%d want 405", resp.StatusCode)
	}

	// The job routes are the front door's: the shard plane has none.
	resp, err = http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("POST /v1/jobs status=%d want 404", resp.StatusCode)
	}
}

func TestPlansEndpoint(t *testing.T) {
	p, _ := newTestPlatform(t)
	st, err := p.Submit(SubmitRequest{Model: "resnet50", GlobalBatch: 128, Iterations: 1e6, DeadlineSeconds: 86400})
	if err != nil {
		t.Fatal(err)
	}
	plans := p.Plans()
	if len(plans) != 1 {
		t.Fatalf("got %d plans want 1", len(plans))
	}
	pe := plans[0]
	if pe.JobID != st.ID || pe.SlotSec <= 0 {
		t.Errorf("plan entry %+v", pe)
	}
	if len(pe.Levels) == 0 || pe.Levels[0] != st.GPUs {
		t.Errorf("plan slot 0 = %v, job runs %d GPUs", pe.Levels, st.GPUs)
	}
	// Over HTTP.
	srv := httptest.NewServer(Handler(p))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/plan")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got []PlanEntry
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].JobID != st.ID {
		t.Errorf("HTTP plan = %+v", got)
	}
}

// TestPlansEndpointUnfinishablePlan: a best-effort job with far more work
// than its planning horizon holds has a plan that cannot finish, so its
// finish time is +Inf, which JSON cannot carry. /v1/plan must still answer
// 200 with a readable body — the entry without finish_sec — not a 200 with
// an empty body.
func TestPlansEndpointUnfinishablePlan(t *testing.T) {
	p, _ := newTestPlatform(t)
	st, err := p.Submit(SubmitRequest{Model: "resnet50", GlobalBatch: 128, Iterations: 1e12, BestEffort: true})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(p))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/plan")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var got []map[string]json.RawMessage
	if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &got) != nil {
		t.Fatalf("GET /v1/plan = %d %q, want 200 with the plans", resp.StatusCode, body)
	}
	if len(got) != 1 || string(got[0]["job_id"]) != strconv.Quote(st.ID) {
		t.Fatalf("GET /v1/plan = %s, want the plan of %s", body, st.ID)
	}
	if fin, ok := got[0]["finish_sec"]; ok {
		t.Errorf("a plan that cannot finish has finish_sec %s", fin)
	}
	if string(got[0]["satisfied"]) != "false" || len(got[0]["levels"]) < 3 {
		t.Errorf("plan entry %s, want an unsatisfied plan with levels", body)
	}
}

func TestDroppedSubmissionCounterOffer(t *testing.T) {
	p, _ := newTestPlatform(t)
	// Impossibly tight deadline, but finite work: the platform should
	// counter-offer the earliest deadline it can guarantee.
	st, err := p.Submit(SubmitRequest{Model: "bert", GlobalBatch: 128, Iterations: 1e6, DeadlineSeconds: 60})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "dropped" {
		t.Fatalf("state=%s want dropped", st.State)
	}
	if st.EarliestFeasibleSec <= 60 {
		t.Errorf("counter-offer %.0f should exceed the rejected 60s deadline", st.EarliestFeasibleSec)
	}
	// Resubmitting with the counter-offer must be admitted.
	st2, err := p.Submit(SubmitRequest{Model: "bert", GlobalBatch: 128, Iterations: 1e6, DeadlineSeconds: st.EarliestFeasibleSec + 1})
	if err != nil {
		t.Fatal(err)
	}
	if st2.State == "dropped" {
		t.Errorf("counter-offered deadline %.0f rejected on resubmission", st.EarliestFeasibleSec)
	}
}

// TestBystanderMigrationKeepsLongerFreeze is the live end of the engine's
// "freeze never shortens" row. Five 1-GPU-floor jobs fill the cluster; two
// cancels at t=10 first grow job-0001 in place and then let job-0003 grow to
// a whole server, which compacts job-0001 across to the other one as a
// bystander. With job-0001 still frozen until t=500 (as an earlier cross-rack
// move would leave it), the cheap bystander charge must not rewind that: the
// job stays frozen until 500 and accrues nothing before it. The bystander is
// a charged rescale in every sense — budget, event and counter.
func TestBystanderMigrationKeepsLongerFreeze(t *testing.T) {
	p, clk := newTestPlatform(t)
	var ids []string
	for i := 0; i < 5; i++ {
		st, err := p.Submit(SubmitRequest{Model: "resnet50", GlobalBatch: 64, Iterations: 2e6, DeadlineSeconds: 4e6})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	clk.advance(10 * time.Second)
	if err := p.Cancel(ids[1]); err != nil {
		t.Fatal(err)
	}
	const frozenUntil = 500.0
	p.mu.Lock()
	by := p.all[ids[0]]
	by.FrozenUntil = frozenUntil
	rescalesBefore, doneBefore := by.Rescales, by.DoneIters
	p.mu.Unlock()
	seq := p.Obs().Bus.LastSeq()
	if err := p.Cancel(ids[3]); err != nil {
		t.Fatal(err)
	}
	var migrated, rescaled bool
	for _, ev := range p.Obs().Bus.Since(seq + 1) {
		if ev.JobID == ids[0] {
			migrated = migrated || ev.Kind == obs.KindMigrate
			rescaled = rescaled || ev.Kind == obs.KindRescale
		}
	}
	if !migrated {
		t.Fatalf("scenario no longer migrates %s as a bystander; rebuild it", ids[0])
	}
	if !rescaled {
		t.Errorf("bystander migration of %s emitted no rescale event", ids[0])
	}
	clk.advance(400 * time.Second) // t=410, still inside the freeze
	p.Tick()
	p.mu.Lock()
	defer p.mu.Unlock()
	if by.FrozenUntil != frozenUntil {
		t.Errorf("FrozenUntil = %v after the bystander move, want the longer freeze %v kept", by.FrozenUntil, frozenUntil)
	}
	if by.Rescales != rescalesBefore+1 {
		t.Errorf("Rescales = %d, want %d: the bystander move is charged to the budget", by.Rescales, rescalesBefore+1)
	}
	if by.DoneIters != doneBefore {
		t.Errorf("frozen job progressed %v → %v iterations before its freeze ended", doneBefore, by.DoneIters)
	}
}

// TestTickHonorsSchedulerWake: a decision that plans an allocation change at
// a later slot boundary asks to be re-run then (sched.Decision.Wake). With no
// arrival, completion or cancel in between, the first tick that reaches the
// wake-up must reschedule — the simulator has always acted on it; the
// platform used to wait for the next unrelated event.
func TestTickHonorsSchedulerWake(t *testing.T) {
	p, clk := newTestPlatform(t)
	if _, err := p.Submit(SubmitRequest{Model: "resnet50", GlobalBatch: 128, Iterations: 1e6, DeadlineSeconds: 1e6}); err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	wake := p.wake
	p.mu.Unlock()
	if wake <= 0 {
		t.Fatal("scenario plans no future allocation change; rebuild it")
	}
	passes := func() (n int) {
		for _, ev := range p.Obs().Bus.Since(0) {
			if ev.Kind == obs.KindSchedAlloc {
				n++
			}
		}
		return n
	}
	before := passes()
	clk.advance(time.Duration(wake/2) * time.Second)
	p.Tick()
	if got := passes(); got != before {
		t.Fatalf("tick at t=%v before the wake-up at %v rescheduled (%d → %d passes)", wake/2, wake, before, got)
	}
	clk.advance(time.Duration(wake) * time.Second)
	p.Tick()
	if got := passes(); got != before+1 {
		t.Fatalf("tick past the wake-up at %v ran %d scheduling passes, want 1", wake, got-before)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.wake <= p.lastTick {
		t.Fatalf("wake %v not moved past the tick at %v", p.wake, p.lastTick)
	}
	// The pending wake-up is state: a platform restored from a snapshot must
	// reschedule at the same instant the uninterrupted one would.
	snap, err := json.Marshal(p.stateLocked())
	if err != nil {
		t.Fatal(err)
	}
	restored, _ := newTestPlatform(t)
	restored.mu.Lock()
	defer restored.mu.Unlock()
	if err := restored.restoreStateLocked(snap); err != nil {
		t.Fatal(err)
	}
	if restored.wake != p.wake {
		t.Errorf("restored wake = %v, want %v", restored.wake, p.wake)
	}
}

// countingReader counts the bytes a handler pulls from a request body.
type countingReader struct {
	r strings.Reader
	n int
}

func (c *countingReader) Read(b []byte) (int, error) {
	n, err := c.r.Read(b)
	c.n += n
	return n, err
}

// TestOversizedBodyRefused: the shard plane reads no request body — a
// 2 MiB submission is refused without a byte of it being read (submissions
// and their 413 bound are the front door's), an operator POST carrying one
// ignores it, and the handler keeps serving.
func TestOversizedBodyRefused(t *testing.T) {
	p, _ := newTestPlatform(t)
	h := Handler(p)
	huge := `{"model":"` + strings.Repeat("a", 2<<20) + `"}`

	for _, tc := range []struct {
		path string
		want int
	}{
		{"/v1/jobs", http.StatusNotFound},
		{"/v1/cluster/servers/0/up", http.StatusOK},
	} {
		body := &countingReader{r: *strings.NewReader(huge)}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, body))
		if rec.Code != tc.want {
			t.Errorf("POST %s with a 2 MiB body: status=%d want %d", tc.path, rec.Code, tc.want)
		}
		if body.n != 0 {
			t.Errorf("POST %s read %d body bytes, want 0", tc.path, body.n)
		}
	}
	if jobs := p.List(); len(jobs) != 0 {
		t.Errorf("the refused submission left %d jobs", len(jobs))
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/cluster", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/cluster after the refusals: status=%d want 200", rec.Code)
	}
}
