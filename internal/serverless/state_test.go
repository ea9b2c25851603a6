package serverless

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/elasticflow/elasticflow/internal/obs"
	"github.com/elasticflow/elasticflow/internal/store"
)

// stateClock is a hand-advanced monotonic clock. Integer-second advances
// keep platform-time arithmetic exact across runs.
type stateClock struct {
	mu sync.Mutex
	t  time.Time
}

func newStateClock() *stateClock {
	return &stateClock{t: time.Unix(1_700_000_000, 0)}
}

func (c *stateClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *stateClock) Advance(sec float64) {
	c.mu.Lock()
	c.t = c.t.Add(time.Duration(sec * float64(time.Second)))
	c.mu.Unlock()
}

// scriptOp is one step of the deterministic workload: advance the clock by
// Dt seconds, then perform the action.
type scriptOp struct {
	Dt     float64
	Action string // submit | cancel | down | up | tick
	Req    SubmitRequest
	ID     string
	Server int
}

// crashScript exercises every journaled mutation kind: admissions, a drop,
// best-effort and soft-deadline classes, node failure and recovery,
// completion-bearing ticks, and a cancel.
func crashScript() []scriptOp {
	return []scriptOp{
		{Dt: 0, Action: "submit", Req: SubmitRequest{Model: "resnet50", GlobalBatch: 128, Iterations: 50000, DeadlineSeconds: 4000}},
		{Dt: 10, Action: "submit", Req: SubmitRequest{Model: "bert", GlobalBatch: 64, Iterations: 20000, DeadlineSeconds: 3000}},
		{Dt: 10, Action: "submit", Req: SubmitRequest{Model: "vgg16", GlobalBatch: 64, Iterations: 1e9, DeadlineSeconds: 1}},
		{Dt: 20, Action: "submit", Req: SubmitRequest{User: "be", Model: "gpt2", GlobalBatch: 64, Iterations: 30000, BestEffort: true}},
		{Dt: 30, Action: "down", Server: 1},
		{Dt: 30, Action: "tick"},
		{Dt: 60, Action: "up", Server: 1},
		{Dt: 15, Action: "submit", Req: SubmitRequest{Model: "inception3", GlobalBatch: 64, Iterations: 40000, DeadlineSeconds: 2500, SoftDeadline: true}},
		{Dt: 200, Action: "tick"},
		{Dt: 10, Action: "cancel", ID: "job-0002"},
		{Dt: 500, Action: "tick"},
		{Dt: 1000, Action: "tick"},
		{Dt: 10, Action: "submit", Req: SubmitRequest{Model: "deepspeech2", GlobalBatch: 64, Iterations: 10000, DeadlineSeconds: 1500}},
		{Dt: 800, Action: "tick"},
	}
}

// applyOp runs one op and renders its outcome as a transcript line: the
// op's result plus the cluster summary after it. Byte equality of these
// lines across runs is the decision-equality bar.
func applyOp(t testing.TB, p *Platform, clk *stateClock, op scriptOp) string {
	t.Helper()
	clk.Advance(op.Dt)
	var out string
	switch op.Action {
	case "submit":
		st, err := p.Submit(op.Req)
		if err != nil {
			out = "submit-err:" + err.Error()
		} else {
			b, _ := json.Marshal(st)
			out = "submit:" + string(b)
		}
	case "cancel":
		if err := p.Cancel(op.ID); err != nil {
			out = "cancel-err:" + err.Error()
		} else {
			out = "cancel:" + op.ID
		}
	case "down":
		evicted, err := p.NodeDown(op.Server)
		if err != nil {
			out = "down-err:" + err.Error()
		} else {
			out = fmt.Sprintf("down:%d evicted=%v", op.Server, evicted)
		}
	case "up":
		if err := p.NodeUp(op.Server); err != nil {
			out = "up-err:" + err.Error()
		} else {
			out = fmt.Sprintf("up:%d", op.Server)
		}
	case "tick":
		p.Tick()
		out = "tick"
	default:
		t.Fatalf("unknown action %q", op.Action)
	}
	cl, _ := json.Marshal(p.Cluster())
	return out + " cluster=" + string(cl)
}

// finalState renders everything externally observable: all job statuses,
// the plan, and the cluster summary.
func finalState(p *Platform) string {
	var b strings.Builder
	enc := json.NewEncoder(&b)
	enc.Encode(p.List())
	enc.Encode(p.Plans())
	enc.Encode(p.Cluster())
	return b.String()
}

// eventTrail renders the full bus trail. Seq included: replay republishes
// onto a fresh bus in the same order, so even sequence numbers must match.
func eventTrail(p *Platform) string {
	var b strings.Builder
	enc := json.NewEncoder(&b)
	for _, ev := range p.Obs().Bus.Since(1) {
		enc.Encode(ev)
	}
	return b.String()
}

// runUninterrupted produces the reference run: transcript per op, final
// state, and event trail.
func runUninterrupted(t *testing.T, ops []scriptOp) ([]string, string, string) {
	t.Helper()
	clk := newStateClock()
	p, err := NewPlatform(Options{Clock: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, op := range ops {
		lines = append(lines, applyOp(t, p, clk, op))
	}
	return lines, finalState(p), eventTrail(p)
}

// TestCrashRestartEquality is the correctness bar of DESIGN.md §11: for
// several crash points, killing the platform mid-trace (no Shutdown, no
// flush beyond what record-then-apply already forced) and recovering from
// the state directory yields a transcript, final state, and bus event trail
// byte-identical to the uninterrupted run.
func TestCrashRestartEquality(t *testing.T) {
	ops := crashScript()
	wantLines, wantFinal, wantTrail := runUninterrupted(t, ops)

	for _, k := range []int{1, 4, 5, 7, 9, 10, 12, len(ops) - 1} {
		t.Run(fmt.Sprintf("crash-at-%d", k), func(t *testing.T) {
			dir := t.TempDir()
			clk := newStateClock()
			st1, err := store.Open(dir, store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			p1, err := NewPlatform(Options{Clock: clk.Now, Store: st1})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < k; i++ {
				if got := applyOp(t, p1, clk, ops[i]); got != wantLines[i] {
					t.Fatalf("pre-crash op %d diverged:\n got %s\nwant %s", i, got, wantLines[i])
				}
			}
			// Crash: abandon the platform without Shutdown. Everything
			// acknowledged is already durable.

			st2, err := store.Open(dir, store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if st2.TornTails() != 0 {
				t.Fatalf("clean crash produced %d torn tails", st2.TornTails())
			}
			p2, err := Recover(Options{Clock: clk.Now, Store: st2})
			if err != nil {
				t.Fatal(err)
			}
			if gen := p2.ef.Generation(); gen == 0 {
				t.Fatal("recovery did not bump the plan-cache generation")
			}
			for i := k; i < len(ops); i++ {
				if got := applyOp(t, p2, clk, ops[i]); got != wantLines[i] {
					t.Fatalf("post-restart op %d diverged:\n got %s\nwant %s", i, got, wantLines[i])
				}
			}
			if got := finalState(p2); got != wantFinal {
				t.Fatalf("final state diverged:\n got %s\nwant %s", got, wantFinal)
			}
			if got := eventTrail(p2); got != wantTrail {
				t.Fatalf("event trail diverged:\n got %s\nwant %s", got, wantTrail)
			}
			if err := p2.Shutdown(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCountersMatchEventsAfterRecover: the lifecycle counters are derived
// from the event stream, so after a crash and a replay each series equals
// the number of bus events of its kind and label — replay counts what it
// republishes, once.
func TestCountersMatchEventsAfterRecover(t *testing.T) {
	ops := crashScript()
	const k = 7
	dir := t.TempDir()
	clk := newStateClock()
	st1, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p1, err := NewPlatform(Options{Clock: clk.Now, Store: st1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		applyOp(t, p1, clk, ops[i])
	}
	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Recover(Options{Clock: clk.Now, Store: st2})
	if err != nil {
		t.Fatal(err)
	}
	for i := k; i < len(ops); i++ {
		applyOp(t, p2, clk, ops[i])
	}
	want := map[string]int{
		`ef_admissions_total{verdict="admit"}`: 0,
		`ef_admissions_total{verdict="drop"}`:  0,
		`ef_completions_total{met="true"}`:     0,
		"ef_rescales_total":                    0,
		"ef_migrations_total":                  0,
	}
	for _, ev := range p2.Obs().Bus.Since(0) {
		switch ev.Kind {
		case obs.KindAdmit, obs.KindDrop:
			want[fmt.Sprintf(`ef_admissions_total{verdict="%s"}`, ev.Kind)]++
		case obs.KindComplete:
			met, _ := ev.Field("met")
			want[fmt.Sprintf(`ef_completions_total{met="%s"}`, met)]++
		case obs.KindRescale:
			want["ef_rescales_total"]++
		case obs.KindMigrate:
			want["ef_migrations_total"]++
		}
	}
	var b strings.Builder
	if err := p2.Obs().Metrics.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for series, n := range want {
		if line := fmt.Sprintf("%s %d\n", series, n); !strings.Contains(b.String(), line) {
			t.Errorf("metrics lack %q (bus events)", strings.TrimSpace(line))
		}
	}
	if want[`ef_admissions_total{verdict="drop"}`] == 0 || want[`ef_completions_total{met="true"}`] == 0 || want["ef_rescales_total"] == 0 {
		t.Errorf("script exercises too little: %v", want)
	}
}

// TestCrashRestartWithSnapshots runs the same bar with aggressive periodic
// snapshotting, so recovery exercises snapshot restore + suffix replay
// rather than whole-journal replay. The bus trail is intentionally not
// compared: events before the snapshot are truncated with the journal.
func TestCrashRestartWithSnapshots(t *testing.T) {
	ops := crashScript()
	wantLines, wantFinal, _ := runUninterrupted(t, ops)

	for _, k := range []int{5, 9, 12} {
		t.Run(fmt.Sprintf("crash-at-%d", k), func(t *testing.T) {
			dir := t.TempDir()
			clk := newStateClock()
			st1, err := store.Open(dir, store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			p1, err := NewPlatform(Options{Clock: clk.Now, Store: st1, SnapshotEvery: 4})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < k; i++ {
				if got := applyOp(t, p1, clk, ops[i]); got != wantLines[i] {
					t.Fatalf("pre-crash op %d diverged:\n got %s\nwant %s", i, got, wantLines[i])
				}
			}
			st2, err := store.Open(dir, store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if _, _, ok := st2.RecoveredSnapshot(); !ok {
				t.Fatal("SnapshotEvery=4 never snapshotted")
			}
			p2, err := Recover(Options{Clock: clk.Now, Store: st2, SnapshotEvery: 4})
			if err != nil {
				t.Fatal(err)
			}
			for i := k; i < len(ops); i++ {
				if got := applyOp(t, p2, clk, ops[i]); got != wantLines[i] {
					t.Fatalf("post-restart op %d diverged:\n got %s\nwant %s", i, got, wantLines[i])
				}
			}
			if got := finalState(p2); got != wantFinal {
				t.Fatalf("final state diverged:\n got %s\nwant %s", got, wantFinal)
			}
		})
	}
}

// TestRecoveryKeepsAdmittedDeadlines asserts re-admission never revokes: a
// job admitted before the crash is still admitted with the same deadline
// after recovery.
func TestRecoveryKeepsAdmittedDeadlines(t *testing.T) {
	dir := t.TempDir()
	clk := newStateClock()
	st1, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p1, err := NewPlatform(Options{Clock: clk.Now, Store: st1})
	if err != nil {
		t.Fatal(err)
	}
	admitted, err := p1.Submit(SubmitRequest{Model: "resnet50", GlobalBatch: 128, Iterations: 50000, DeadlineSeconds: 4000})
	if err != nil {
		t.Fatal(err)
	}
	if admitted.State != "admitted" && admitted.State != "running" {
		t.Fatalf("seed job not admitted: %+v", admitted)
	}

	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Recover(Options{Clock: clk.Now, Store: st2})
	if err != nil {
		t.Fatal(err)
	}
	got, err := p2.Get(admitted.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State == "dropped" {
		t.Fatal("recovery revoked an admitted job")
	}
	if got.Deadline != admitted.Deadline {
		t.Fatalf("recovery moved the deadline: %v -> %v", admitted.Deadline, got.Deadline)
	}
	if got.DeadlineAtRisk {
		t.Fatal("recovery marked an unthreatened deadline at risk")
	}
}

// TestTornTailRecovery tears the final journal record (a partial write at
// crash) and recovers: the platform must come back from the intact prefix,
// with the truncation surfaced — never a panic or silent divergence.
func TestTornTailRecovery(t *testing.T) {
	ops := crashScript()
	dir := t.TempDir()
	clk := newStateClock()
	st1, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p1, err := NewPlatform(Options{Clock: clk.Now, Store: st1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		applyOp(t, p1, clk, ops[i])
	}
	// Tear the last record: chop 3 bytes off the active segment.
	path := st1.Dir() + "/" + activeSegmentName(t, st1)
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-3); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatalf("torn tail failed recovery scan: %v", err)
	}
	if st2.TornTails() != 1 {
		t.Fatalf("TornTails = %d, want 1", st2.TornTails())
	}
	reg := obs.New(obs.Options{Clock: clk.Now})
	p2, err := Recover(Options{Clock: clk.Now, Store: st2, Obs: reg})
	if err != nil {
		t.Fatalf("torn tail failed platform recovery: %v", err)
	}
	// The platform is live and consistent: mutations still work.
	if _, err := p2.Submit(SubmitRequest{Model: "vgg16", GlobalBatch: 64, Iterations: 1000, DeadlineSeconds: 3000}); err != nil {
		t.Fatal(err)
	}
	// The torn tail was detected before the platform's obs handle existed
	// (the store is opened first — exactly efserver's wiring); construction
	// must rewire the store and backfill, so the counter is scrapeable.
	var b strings.Builder
	if err := reg.Metrics.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "ef_store_torn_tails_total 1") {
		t.Fatalf("ef_store_torn_tails_total missing from platform metrics:\n%s", b.String())
	}
}

// activeSegmentName finds the single .wal file of a store directory.
func activeSegmentName(t *testing.T, s *store.Store) string {
	t.Helper()
	entries, err := os.ReadDir(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".wal") {
			names = append(names, e.Name())
		}
	}
	if len(names) != 1 {
		t.Fatalf("expected one segment, found %v", names)
	}
	return names[0]
}

// TestShutdownRejectsMutations: after Shutdown begins flushing, every
// mutation is refused with ErrShuttingDown and the HTTP layer answers 503,
// while reads keep working; a restart restores the pre-shutdown state.
func TestShutdownRejectsMutations(t *testing.T) {
	dir := t.TempDir()
	clk := newStateClock()
	st1, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlatform(Options{Clock: clk.Now, Store: st1})
	if err != nil {
		t.Fatal(err)
	}
	seed, err := p.Submit(SubmitRequest{Model: "resnet50", GlobalBatch: 128, Iterations: 50000, DeadlineSeconds: 4000})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := p.Shutdown(); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}

	if _, err := p.Submit(SubmitRequest{Model: "bert", GlobalBatch: 64, Iterations: 100, DeadlineSeconds: 100}); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("Submit after Shutdown: err = %v, want ErrShuttingDown", err)
	}
	if err := p.Cancel(seed.ID); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("Cancel after Shutdown: err = %v, want ErrShuttingDown", err)
	}
	if _, err := p.NodeDown(0); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("NodeDown after Shutdown: err = %v, want ErrShuttingDown", err)
	}
	if err := p.NodeUp(0); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("NodeUp after Shutdown: err = %v, want ErrShuttingDown", err)
	}
	// Reads still serve the frozen state.
	if _, err := p.Get(seed.ID); err != nil {
		t.Fatal(err)
	}

	// The shard plane's one mutation route answers 503; the job routes'
	// answers are the front door's (frontdoor.TestShutdownAnswers503).
	h := Handler(p)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/cluster/servers/0/down", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("POST servers/0/down during shutdown: %d, want 503", rec.Code)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/cluster", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/cluster during shutdown: %d, want 200", rec.Code)
	}

	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Recover(Options{Clock: clk.Now, Store: st2})
	if err != nil {
		t.Fatal(err)
	}
	got, err := p2.Get(seed.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State == "dropped" {
		t.Fatal("graceful shutdown lost the admitted job")
	}
}

// TestCancelIsNotADrop: a cancelled job lists as "cancelled", not as an
// admission refusal — dropped_jobs counts refusals only — and a snapshot +
// Recover round trip keeps the state.
func TestCancelIsNotADrop(t *testing.T) {
	dir := t.TempDir()
	clk := newStateClock()
	st1, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p1, err := NewPlatform(Options{Clock: clk.Now, Store: st1})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := p1.Submit(SubmitRequest{Model: "resnet50", GlobalBatch: 128, Iterations: 50000, DeadlineSeconds: 4000})
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(10)
	if err := p1.Cancel(sub.ID); err != nil {
		t.Fatal(err)
	}
	check := func(p *Platform, when string) {
		t.Helper()
		list := p.List()
		if len(list) != 1 || list[0].State != "cancelled" {
			t.Fatalf("%s: list = %+v, want the one job cancelled", when, list)
		}
		if n := p.Cluster().Dropped; n != 0 {
			t.Fatalf("%s: dropped_jobs = %d, want 0 (a cancel is not a refusal)", when, n)
		}
	}
	check(p1, "live")
	if err := p1.Shutdown(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := st2.RecoveredSnapshot(); !ok {
		t.Fatal("shutdown left no snapshot")
	}
	p2, err := Recover(Options{Clock: clk.Now, Store: st2})
	if err != nil {
		t.Fatal(err)
	}
	check(p2, "recovered")
}

// TestNewPlatformRefusesRecoveredState: silently ignoring a non-empty state
// directory would void every guarantee it records.
func TestNewPlatformRefusesRecoveredState(t *testing.T) {
	dir := t.TempDir()
	clk := newStateClock()
	st1, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlatform(Options{Clock: clk.Now, Store: st1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Submit(SubmitRequest{Model: "resnet50", GlobalBatch: 128, Iterations: 100, DeadlineSeconds: 4000}); err != nil {
		t.Fatal(err)
	}
	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPlatform(Options{Clock: clk.Now, Store: st2}); err == nil {
		t.Fatal("NewPlatform accepted a state directory with recovered state")
	}
}
