package frontdoor

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/elasticflow/elasticflow/internal/serverless"
	"github.com/elasticflow/elasticflow/internal/store"
	"github.com/elasticflow/elasticflow/internal/topology"
)

// testClock is a hand-advanced monotonic clock (integer-second advances
// keep platform-time arithmetic exact across runs).
type testClock struct {
	mu sync.Mutex
	t  time.Time
}

func newTestClock() *testClock { return &testClock{t: time.Unix(1_700_000_000, 0)} }

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *testClock) Advance(sec float64) {
	c.mu.Lock()
	c.t = c.t.Add(time.Duration(sec * float64(time.Second)))
	c.mu.Unlock()
}

func sloReq(tenant string) serverless.SubmitRequest {
	return serverless.SubmitRequest{
		Tenant: tenant, Model: "resnet50", GlobalBatch: 128,
		Iterations: 50000, DeadlineSeconds: 4000,
	}
}

func beReq(tenant string) serverless.SubmitRequest {
	return serverless.SubmitRequest{
		Tenant: tenant, Model: "resnet50", GlobalBatch: 64,
		Iterations: 30000, BestEffort: true,
	}
}

func TestParseTenants(t *testing.T) {
	got, err := ParseTenants("acme:rate=100,burst=200,gpus=32; globex:gpus=16")
	if err != nil {
		t.Fatal(err)
	}
	if got["acme"] != (TenantConfig{RatePerSec: 100, Burst: 200, MaxGPUs: 32}) {
		t.Fatalf("acme = %+v", got["acme"])
	}
	if got["globex"] != (TenantConfig{MaxGPUs: 16}) {
		t.Fatalf("globex = %+v", got["globex"])
	}
	if m, err := ParseTenants(""); err != nil || len(m) != 0 {
		t.Fatalf("empty spec: %v %v", m, err)
	}
	for _, bad := range []string{
		"noname", "a:rate=x", "a:burst=-1", "a:gpus=z", "a:wat=1", "a:rate=1;a:rate=2",
	} {
		if _, err := ParseTenants(bad); err == nil {
			t.Errorf("ParseTenants(%q) did not fail", bad)
		}
	}
}

func TestTokenBucket(t *testing.T) {
	clk := newTestClock()
	ts := &tenantState{cfg: TenantConfig{RatePerSec: 1, Burst: 2}}
	if !ts.allow(clk.Now()) || !ts.allow(clk.Now()) {
		t.Fatal("burst of 2 not honored")
	}
	if ts.allow(clk.Now()) {
		t.Fatal("third immediate submission not limited")
	}
	clk.Advance(1)
	if !ts.allow(clk.Now()) {
		t.Fatal("token did not refill after 1s at rate 1")
	}
	unlimited := &tenantState{}
	for i := 0; i < 100; i++ {
		if !unlimited.allow(clk.Now()) {
			t.Fatal("zero config must be unlimited")
		}
	}
}

func TestRateLimitAtFrontDoor(t *testing.T) {
	clk := newTestClock()
	fd, err := New(Options{
		Clock:   clk.Now,
		Tenants: map[string]TenantConfig{"acme": {RatePerSec: 1, Burst: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fd.Shutdown()
	if _, err := fd.Submit(beReq("acme")); err != nil {
		t.Fatal(err)
	}
	if _, err := fd.Submit(beReq("acme")); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("second submission: got %v, want ErrRateLimited", err)
	}
	// Other tenants are unaffected.
	if _, err := fd.Submit(beReq("globex")); err != nil {
		t.Fatal(err)
	}
	clk.Advance(2)
	if _, err := fd.Submit(beReq("acme")); err != nil {
		t.Fatalf("after refill: %v", err)
	}
}

func TestQuotaAtFrontDoor(t *testing.T) {
	clk := newTestClock()
	fd, err := New(Options{
		Clock:   clk.Now,
		Tenants: map[string]TenantConfig{"acme": {MaxGPUs: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fd.Shutdown()
	st, err := fd.Submit(sloReq("acme"))
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "admitted" && st.State != "running" {
		t.Fatalf("seed job not admitted: %+v", st)
	}
	// Refresh the usage cache: the job's GPUs are assigned by the batch's
	// rescheduling pass, and Tick publishes them to the quota cache.
	clk.Advance(1)
	fd.Tick()
	if u := fd.TenantUsage()["acme"]; u < 1 {
		t.Fatalf("usage not visible after tick: %d", u)
	}
	if _, err := fd.Submit(beReq("acme")); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("over-quota submission: got %v, want ErrQuotaExceeded", err)
	}
	// The quota is per-tenant, not global.
	if _, err := fd.Submit(beReq("globex")); err != nil {
		t.Fatal(err)
	}
}

func TestRoutingIsDeterministicPerTenant(t *testing.T) {
	clk := newTestClock()
	fd, err := New(Options{Shards: 4, Clock: clk.Now, RebalanceBelow: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer fd.Shutdown()
	shardOf := make(map[string]string)
	for i := 0; i < 3; i++ {
		for _, tenant := range []string{"a", "b", "c", "d", "e"} {
			st, err := fd.Submit(beReq(tenant))
			if err != nil {
				t.Fatal(err)
			}
			pfx, _, _ := strings.Cut(st.ID, "-")
			if want, seen := shardOf[tenant]; seen && want != pfx {
				t.Fatalf("tenant %s moved shard: %s then %s", tenant, want, pfx)
			}
			shardOf[tenant] = pfx
			if pfx != fmt.Sprintf("s%d", homeShard(tenant, 4)) {
				t.Fatalf("tenant %s landed on %s, want home s%d", tenant, pfx, homeShard(tenant, 4))
			}
		}
	}
}

func TestRebalancer(t *testing.T) {
	free := []int{1, 10, 4}
	total := []int{16, 16, 16}
	// Home has spare capacity: stays put.
	if k, moved := pickShard(1, free, total, 0.25); k != 1 || moved {
		t.Fatalf("healthy home rerouted: %d %v", k, moved)
	}
	// Home hot (1/16 < 0.25): spills to the most-spare shard.
	if k, moved := pickShard(0, free, total, 0.25); k != 1 || !moved {
		t.Fatalf("hot home not spilled to 1: %d %v", k, moved)
	}
	// Ties break to the lowest index, deterministically.
	if k, _ := pickShard(2, []int{0, 5, 0, 5}, []int{8, 8, 8, 8}, 0.25); k != 1 {
		t.Fatalf("tie broke to %d, want 1", k)
	}
	// Threshold 0 (RebalanceBelow<0 in Options) never spills.
	if k, moved := pickShard(0, free, total, 0); k != 0 || moved {
		t.Fatalf("zero threshold rerouted: %d %v", k, moved)
	}
}

func TestBatchedVerdictsUnderConcurrency(t *testing.T) {
	clk := newTestClock()
	fd, err := New(Options{Shards: 2, Clock: clk.Now, MaxBatch: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer fd.Shutdown()
	const n = 60
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := fd.Submit(beReq(fmt.Sprintf("tenant-%d", i%6)))
			if err != nil {
				errs <- err
				return
			}
			if st.ID == "" {
				errs <- fmt.Errorf("empty job ID")
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := len(fd.List()); got != n {
		t.Fatalf("listed %d jobs, want %d", got, n)
	}
	// Every admission rode in a batch: the per-shard batch events' sizes
	// must sum to the total, and no batch may exceed MaxBatch.
	sum := 0
	for k := 0; k < fd.Shards(); k++ {
		for _, ev := range fd.Shard(k).Obs().Bus.Since(1) {
			if ev.Kind != "batch" {
				continue
			}
			var size int
			s, _ := ev.Field("size")
			fmt.Sscanf(s, "%d", &size)
			if size < 1 || size > 16 {
				t.Fatalf("batch size %d out of [1,16]", size)
			}
			sum += size
		}
	}
	if sum != n {
		t.Fatalf("batch sizes sum to %d, want %d", sum, n)
	}
}

func TestGetCancelRouting(t *testing.T) {
	clk := newTestClock()
	fd, err := New(Options{Shards: 3, Clock: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	defer fd.Shutdown()
	st, err := fd.Submit(sloReq("acme"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := fd.Get(st.ID)
	if err != nil || got.ID != st.ID || got.Tenant != "acme" {
		t.Fatalf("Get(%s) = %+v, %v", st.ID, got, err)
	}
	if err := fd.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	if got, _ := fd.Get(st.ID); got.State != "cancelled" {
		t.Fatalf("cancelled job state %s", got.State)
	}
	for _, bad := range []string{"job-0001", "s9-job-0001", "sx-job-0001", ""} {
		if _, err := fd.Get(bad); err == nil {
			t.Errorf("Get(%q) did not fail", bad)
		}
	}
}

// TestPerShardCrashReplay is the tentpole durability bar: shards run with
// their own WALs, the process dies without Shutdown, and a recovered front
// door reproduces each shard's decision/event trail — tenant and batch
// framing included — byte-for-byte against an uninterrupted reference run.
func TestPerShardCrashReplay(t *testing.T) {
	script := []serverless.SubmitRequest{
		sloReq("acme"), beReq("globex"), sloReq("initech"),
		beReq("acme"), sloReq("globex"), beReq("hooli"),
	}
	run := func(dir string) *FrontDoor {
		clk := newTestClock()
		fd, err := New(Options{
			Shards:         2,
			Clock:          clk.Now,
			StateDir:       dir,
			RebalanceBelow: -1, // pure hash routing, deterministic across runs
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, req := range script {
			clk.Advance(float64(10 * i))
			if _, err := fd.Submit(req); err != nil {
				t.Fatalf("submit %d: %v", i, err)
			}
		}
		clk.Advance(50)
		fd.Tick()
		return fd
	}

	trails := func(fd *FrontDoor) []string {
		out := make([]string, fd.Shards())
		for k := 0; k < fd.Shards(); k++ {
			var b strings.Builder
			enc := json.NewEncoder(&b)
			for _, ev := range fd.Shard(k).Obs().Bus.Since(1) {
				enc.Encode(ev)
			}
			out[k] = b.String()
		}
		return out
	}

	ref := run("") // storeless reference
	wantTrails := trails(ref)
	wantList, _ := json.Marshal(ref.List())
	ref.Shutdown()

	dir := t.TempDir()
	crashed := run(dir)
	_ = crashed // crash: no Shutdown, no flush beyond record-then-apply

	clk := newTestClock()
	rec, err := New(Options{Shards: 2, Clock: clk.Now, StateDir: dir, RebalanceBelow: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Shutdown()
	gotTrails := trails(rec)
	for k := range wantTrails {
		if gotTrails[k] != wantTrails[k] {
			t.Fatalf("shard %d trail diverged after recovery:\n got %s\nwant %s", k, gotTrails[k], wantTrails[k])
		}
	}
	gotList, _ := json.Marshal(rec.List())
	if string(gotList) != string(wantList) {
		t.Fatalf("recovered job list diverged:\n got %s\nwant %s", gotList, wantList)
	}
	// Tenants recovered into the quota cache too.
	if u := rec.TenantUsage(); len(u) == 0 {
		t.Fatal("recovered front door lost tenant usage")
	}
}

func TestHTTPSurface(t *testing.T) {
	clk := newTestClock()
	fd, err := New(Options{
		Shards:        2,
		ShardTopology: topology.Config{Servers: 2, GPUsPerServer: 8},
		Clock:         clk.Now,
		Tenants:       map[string]TenantConfig{"acme": {RatePerSec: 1, Burst: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fd.Shutdown()
	srv := httptest.NewServer(Handler(fd))
	defer srv.Close()

	post := func(body string) (*http.Response, []byte) {
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var buf [4096]byte
		n, _ := resp.Body.Read(buf[:])
		resp.Body.Close()
		return resp, buf[:n]
	}

	resp, body := post(`{"tenant":"acme","model":"resnet50","global_batch":128,"iterations":50000,"deadline_seconds":4000}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var st serverless.JobStatus
	if err := json.Unmarshal(body, &st); err != nil || st.Tenant != "acme" {
		t.Fatalf("submit body %s: %v", body, err)
	}

	// Token bucket empty now → 429.
	resp, _ = post(`{"tenant":"acme","model":"resnet50","global_batch":64,"iterations":1000,"best_effort":true}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("rate-limited submit: %d", resp.StatusCode)
	}

	// Malformed → 400, whether invalid or not JSON at all.
	resp, _ = post(`{"tenant":"x","model":"nope","global_batch":1,"iterations":1}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid submit: %d", resp.StatusCode)
	}
	resp, _ = post(`{`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON submit: %d", resp.StatusCode)
	}

	// An infeasible deadline → 409 carrying the dropped job and a
	// counter-offer.
	resp, body = post(`{"model":"bert","global_batch":128,"iterations":1000000,"deadline_seconds":60}`)
	var dropped serverless.JobStatus
	if err := json.Unmarshal(body, &dropped); err != nil {
		t.Fatalf("dropped body %s: %v", body, err)
	}
	if resp.StatusCode != http.StatusConflict || dropped.State != "dropped" || dropped.EarliestFeasibleSec <= 0 {
		t.Fatalf("infeasible submit: %d %+v, want 409 with earliest_feasible_sec > 0", resp.StatusCode, dropped)
	}

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		buf := make([]byte, 1<<16)
		for {
			n, err := resp.Body.Read(buf)
			b.Write(buf[:n])
			if err != nil {
				break
			}
		}
		resp.Body.Close()
		return resp.StatusCode, b.String()
	}

	if code, body := get("/v1/jobs/" + st.ID); code != 200 || !strings.Contains(body, st.ID) {
		t.Fatalf("get job: %d %s", code, body)
	}
	for _, id := range []string{"ghost", "s0-ghost", "s9-job-0001"} {
		if code, body := get("/v1/jobs/" + id); code != http.StatusNotFound {
			t.Fatalf("get unknown job %s: %d %s, want 404", id, code, body)
		}
	}
	if code, body := get("/v1/jobs"); code != 200 || !strings.Contains(body, st.ID) || !strings.Contains(body, dropped.ID) {
		t.Fatalf("list: %d %s", code, body)
	}
	if code, body := get("/v1/tenants"); code != 200 || !strings.Contains(body, "acme") {
		t.Fatalf("tenants: %d %s", code, body)
	}
	if code, body := get("/metrics"); code != 200 ||
		!strings.Contains(body, "ef_frontdoor_submissions_total") ||
		!strings.Contains(body, "ef_tenant_used_gpus") {
		t.Fatalf("front-door metrics missing series: %d", code)
	}
	// Per-shard delegation: the shard's own control plane, metrics included.
	if code, body := get("/v1/shards/0/v1/cluster"); code != 200 || !strings.Contains(body, "total_gpus") {
		t.Fatalf("shard cluster: %d %s", code, body)
	}
	if code, body := get("/v1/shards/1/metrics"); code != 200 || !strings.Contains(body, "ef_admissions_total") {
		t.Fatalf("shard metrics: %d", code)
	}
	del := func(id string) int {
		req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := del(st.ID); code != http.StatusNoContent {
		t.Fatalf("cancel: %d, want 204", code)
	}
	if code := del("s1-ghost"); code != http.StatusNotFound {
		t.Fatalf("cancel unknown job: %d, want 404", code)
	}
}

// TestSubmitErrorCodes pins the HTTP mapping: rate limiting is retryable
// (429 — the bucket refills), quota exhaustion is not (403 — the tenant
// must release GPUs first), shutdown is 503 on submit and cancel alike, and
// anything else is the route's own failure (400 submit, 404 cancel).
func TestSubmitErrorCodes(t *testing.T) {
	cases := []struct {
		err      error
		fallback int
		want     int
	}{
		{ErrRateLimited, http.StatusBadRequest, http.StatusTooManyRequests},
		{ErrQuotaExceeded, http.StatusBadRequest, http.StatusForbidden},
		{serverless.ErrShuttingDown, http.StatusBadRequest, http.StatusServiceUnavailable},
		{serverless.ErrShuttingDown, http.StatusNotFound, http.StatusServiceUnavailable},
		{errors.New("anything else"), http.StatusBadRequest, http.StatusBadRequest},
		{errors.New("unknown job"), http.StatusNotFound, http.StatusNotFound},
	}
	for _, c := range cases {
		if got := errorCode(c.err, c.fallback); got != c.want {
			t.Errorf("errorCode(%v, %d) = %d, want %d", c.err, c.fallback, got, c.want)
		}
	}
}

// TestShutdownAnswers503: once Shutdown has begun flushing the journals, a
// submission and a cancel are both refused with 503 — the cancel's job
// exists, so 404 would be a lie — while reads keep answering.
func TestShutdownAnswers503(t *testing.T) {
	fd, err := New(Options{Clock: newTestClock().Now, StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	seed, err := fd.Submit(sloReq("acme"))
	if err != nil {
		t.Fatal(err)
	}
	if err := fd.Shutdown(); err != nil {
		t.Fatal(err)
	}
	h := Handler(fd)
	for _, c := range []struct {
		method, path, body string
		want               int
	}{
		{http.MethodPost, "/v1/jobs", `{"model":"bert","global_batch":64,"iterations":100,"deadline_seconds":100}`, http.StatusServiceUnavailable},
		{http.MethodDelete, "/v1/jobs/" + seed.ID, "", http.StatusServiceUnavailable},
		{http.MethodGet, "/v1/jobs", "", http.StatusOK},
		{http.MethodGet, "/v1/jobs/" + seed.ID, "", http.StatusOK},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(c.method, c.path, strings.NewReader(c.body)))
		if rec.Code != c.want {
			t.Errorf("%s %s during shutdown: %d, want %d", c.method, c.path, rec.Code, c.want)
		}
	}
}

// TestShardSubmitRefused: the per-shard plane has no job routes — a
// submission there would skip the tenant's rate limit and GPU quota — while
// its own reads keep working.
func TestShardSubmitRefused(t *testing.T) {
	tenants, err := ParseTenants("t0:gpus=8")
	if err != nil {
		t.Fatal(err)
	}
	fd, err := New(Options{Shards: 2, Clock: newTestClock().Now, Tenants: tenants})
	if err != nil {
		t.Fatal(err)
	}
	defer fd.Shutdown()
	srv := httptest.NewServer(Handler(fd))
	defer srv.Close()

	body, _ := json.Marshal(sloReq("t0"))
	resp, err := http.Post(srv.URL+"/v1/shards/0/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("shard-level submit: %d, want 404", resp.StatusCode)
	}
	if jobs := fd.List(); len(jobs) != 0 {
		t.Fatalf("shard-level submit created %d job(s)", len(jobs))
	}
	resp, err = http.Get(srv.URL + "/v1/shards/0/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("shard-level cluster read: %d want 200", resp.StatusCode)
	}
}

// TestOversizedBodyRefused: a front-door submission body past
// MaxRequestBytes answers 413, and the handler keeps serving.
func TestOversizedBodyRefused(t *testing.T) {
	fd, err := New(Options{Clock: newTestClock().Now})
	if err != nil {
		t.Fatal(err)
	}
	defer fd.Shutdown()
	srv := httptest.NewServer(Handler(fd))
	defer srv.Close()

	huge := `{"tenant":"` + strings.Repeat("a", 2<<20) + `"}`
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("2 MiB body status=%d want 413", resp.StatusCode)
	}

	body, _ := json.Marshal(sloReq("acme"))
	resp, err = http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("valid submission after the refusal: status=%d want 201", resp.StatusCode)
	}
}

// TestStateDirRefused: New refuses a state directory it would only partly
// open, instead of starting without the admissions it holds — one written
// with more shards than configured, and one with a journal at its top level.
func TestStateDirRefused(t *testing.T) {
	shrunk := t.TempDir()
	fd, err := New(Options{Shards: 2, Clock: newTestClock().Now, StateDir: shrunk, RebalanceBelow: -1})
	if err != nil {
		t.Fatal(err)
	}
	var onShard1 serverless.JobStatus
	for i := 0; onShard1.ID == ""; i++ {
		tenant := fmt.Sprintf("t%d", i)
		if homeShard(tenant, 2) != 1 {
			continue
		}
		if onShard1, err = fd.Submit(sloReq(tenant)); err != nil {
			t.Fatal(err)
		}
	}
	if !strings.HasPrefix(onShard1.ID, "s1-") {
		t.Fatalf("job %s did not land on shard 1", onShard1.ID)
	}
	if err := fd.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if fd, err := New(Options{Shards: 1, Clock: newTestClock().Now, StateDir: shrunk}); err == nil {
		fd.Shutdown()
		t.Fatal("a 1-shard restart opened a state directory holding shard-1")
	} else if !strings.Contains(err.Error(), "shard-1") {
		t.Errorf("refusal %q does not name shard-1", err)
	}
	// The same directory at its own shard count still recovers the job.
	fd, err = New(Options{Shards: 2, Clock: newTestClock().Now, StateDir: shrunk})
	if err != nil {
		t.Fatal(err)
	}
	defer fd.Shutdown()
	if _, err := fd.Get(onShard1.ID); err != nil {
		t.Fatalf("2-shard restart lost %s: %v", onShard1.ID, err)
	}

	// A journal at the top level, as a platform opened on the directory
	// itself leaves it.
	flat := t.TempDir()
	st, err := store.Open(flat, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := serverless.NewPlatform(serverless.Options{Clock: newTestClock().Now, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Submit(sloReq("")); err != nil {
		t.Fatal(err)
	}
	if err := p.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if fd, err := New(Options{Clock: newTestClock().Now, StateDir: flat}); err == nil {
		fd.Shutdown()
		t.Fatal("New opened a state directory with a journal at its top level")
	} else if !strings.Contains(err.Error(), flat) {
		t.Errorf("refusal %q does not name the directory", err)
	}
}
