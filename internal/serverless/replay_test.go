package serverless

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"regexp"
	"sort"
	"strings"
	"testing"

	"github.com/elasticflow/elasticflow/internal/obs"
	"github.com/elasticflow/elasticflow/internal/store"
	"github.com/elasticflow/elasticflow/internal/topology"
)

// openDurable opens dir and starts a fresh durable platform over it.
func openDurable(t *testing.T, dir string, clk *stateClock, o *obs.Obs) (*Platform, *store.Store) {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlatform(Options{Clock: clk.Now, Store: st, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	return p, st
}

// recoverDir recovers a platform of the given shape from dir and returns
// Recover's verdict. Recovery appends nothing, so one directory can be put
// through it any number of times.
func recoverDir(t *testing.T, dir string, topo topology.Config) error {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	_, err = Recover(Options{Clock: newStateClock().Now, Store: st, Topology: topo})
	return err
}

// TestReplayDivergenceRefused drives the tripwire end to end: every record
// carries the event-trail hash of the run that wrote it, and recovery goes no
// further than the first record its own replay disagrees with.
func TestReplayDivergenceRefused(t *testing.T) {
	req := SubmitRequest{Model: "resnet50", GlobalBatch: 128, Iterations: 50000, DeadlineSeconds: 4000}

	dir := t.TempDir()
	clk := newStateClock()
	p, _ := openDurable(t, dir, clk, nil)
	for _, op := range crashScript() {
		applyOp(t, p, clk, op)
	}
	t.Run("faithful", func(t *testing.T) {
		if err := recoverDir(t, dir, topology.Config{}); err != nil {
			t.Fatalf("the platform that wrote the journal cannot replay it: %v", err)
		}
	})
	t.Run("other-cluster", func(t *testing.T) {
		// Half the GPUs: placements, hence events, differ within the first
		// few decisions, and the record after the first that does says so.
		err := recoverDir(t, dir, topology.Config{Servers: 1, GPUsPerServer: 8})
		if err == nil || !regexp.MustCompile(`replay divergence at LSN \d+`).MatchString(err.Error()) {
			t.Fatalf("recovering a 2×8 journal on a 1×8 cluster: err = %v, want a replay divergence naming the LSN", err)
		}
	})
	t.Run("wrong-trail", func(t *testing.T) {
		dir := t.TempDir()
		clk := newStateClock()
		p, st := openDurable(t, dir, clk, nil)
		if _, err := p.Submit(req); err != nil {
			t.Fatal(err)
		}
		p.mu.Lock()
		wrong := p.trail + 1
		p.mu.Unlock()
		lsn, err := st.Append(recSubmit, 10, recordBody{Trail: wrong, Op: req}, true)
		if err != nil {
			t.Fatal(err)
		}
		err = recoverDir(t, dir, topology.Config{})
		if want := fmt.Sprintf("replay divergence at LSN %d", lsn); lsn != 2 || err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("hand-appended record %d with a wrong trail: err = %v, want %q", lsn, err, want)
		}
	})
	// What the previous release journaled: bodies without the {trail, op}
	// frame, event mirrors, advances with no body at all. One error, wherever
	// in the journal the first such record sits.
	for _, c := range []struct {
		name, kind string
		body       any
	}{
		{"old-submit", recSubmit, req},
		{"old-event", "event", map[string]any{"kind": obs.KindAdmit, "job": "job-0001"}},
		{"old-advance", recAdvance, nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			st, err := store.Open(dir, store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := st.Append(c.kind, 0, c.body, true); err != nil {
				t.Fatal(err)
			}
			err = recoverDir(t, dir, topology.Config{})
			if !errors.Is(err, errForeignState) || !strings.Contains(err.Error(), "record 1") {
				t.Fatalf("err = %v, want errForeignState naming record 1", err)
			}
		})
	}
}

// TestJournalHoldsDecisionsOnly pins what reaches the journal: one record per
// operation that moved the clock — the mutation itself when there is one to
// record, an advance otherwise — and one fsync per acknowledged mutation even
// when its advance retires a job.
func TestJournalHoldsDecisionsOnly(t *testing.T) {
	dir := t.TempDir()
	clk := newStateClock()
	p, _ := openDurable(t, dir, clk, nil)
	// The kind of record each operation of crashScript leaves.
	want := []string{
		recSubmit, recSubmit, recSubmit,
		recAdvance, // gpt2 has no batch 64: refused before the journal, the read after it moves the clock
		recNodeDown, recAdvance, recNodeUp, recSubmit, recAdvance,
		recAdvance, // job-0002 finished before its cancel arrived
		recAdvance, recAdvance, recSubmit, recAdvance,
	}
	for _, op := range crashScript() {
		applyOp(t, p, clk, op)
	}
	step := func(kind string, do func()) {
		clk.Advance(5)
		do()
		want = append(want, kind)
	}
	var admitted string
	step(recBatch, func() {
		sts, err := p.SubmitBatch([]SubmitRequest{
			{Tenant: "acme", Model: "bert", GlobalBatch: 64, Iterations: 2e6, DeadlineSeconds: 30000},
			{Model: "vgg16", GlobalBatch: 64, Iterations: 1e9, DeadlineSeconds: 1},
		})
		if err != nil || sts[0].State != "running" {
			t.Fatalf("SubmitBatch = %+v, %v; want the first job running", sts, err)
		}
		admitted = sts[0].ID
	})
	for _, kind := range []string{recCancel, recAdvance} { // the second cancel has nothing to record
		step(kind, func() {
			if err := p.Cancel(admitted); err != nil {
				t.Fatal(err)
			}
		})
	}
	step(recAdvance, func() {
		if _, err := p.NodeDown(7); err == nil {
			t.Fatal("NodeDown(7) on a two-server cluster succeeded")
		}
	})
	step(recAdvance, func() { p.List() })
	step(recSubmit, func() {
		st, err := p.Submit(SubmitRequest{Model: "resnet50", GlobalBatch: 128, Iterations: 100, DeadlineSeconds: 4000})
		if err != nil {
			t.Fatal(err)
		}
		admitted = st.ID
	})
	clk.Advance(1000)
	step(recCancel, func() { // decided while the job was running; it finishes inside the record's own advance
		if err := p.Cancel(admitted); err != nil {
			t.Fatal(err)
		}
		if st, err := p.Get(admitted); err != nil || st.State != "completed" {
			t.Fatalf("job cancelled after its finish time = %+v, %v; want it completed", st, err)
		}
	})

	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	tail := st.RecoveredTail()
	back, err := Recover(Options{Clock: clk.Now, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := finalState(back)+eventTrail(back), finalState(p)+eventTrail(p); got != want {
		t.Errorf("replaying the journal gives another state or event trail:\n got %s\nwant %s", got, want)
	}
	var got []string
	for _, rec := range tail {
		got = append(got, rec.Kind)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("journal kinds, one per operation:\n got %v\nwant %v", got, want)
	}
	for i := 1; i < len(tail); i++ {
		if tail[i-1].Kind == recAdvance && tail[i-1].Time == tail[i].Time {
			t.Errorf("advance record %d restates the time of the %s record after it", tail[i-1].LSN, tail[i].Kind)
		}
	}

	// Each submission below arrives after the previous job has finished, so
	// its advance retires a job — the case that used to cost a durable advance
	// record ahead of the durable submit.
	reg := obs.New(obs.Options{Clock: clk.Now})
	p, _ = openDurable(t, t.TempDir(), clk, reg)
	short := SubmitRequest{Model: "resnet50", GlobalBatch: 128, Iterations: 100, DeadlineSeconds: 4000}
	if _, err := p.Submit(short); err != nil {
		t.Fatal(err)
	}
	const n = 5
	before := storeFsyncs(t, reg)
	for i := 0; i < n; i++ {
		clk.Advance(1000)
		if _, err := p.Submit(short); err != nil {
			t.Fatal(err)
		}
	}
	if d := storeFsyncs(t, reg) - before; d != n {
		t.Errorf("%d durable submissions cost %d fsyncs, want one each", n, d)
	}
	if c := p.Cluster(); c.Completed != n {
		t.Fatalf("the %d submissions retired %d jobs; the script no longer has each one retire its predecessor", n, c.Completed)
	}
}

// storeFsyncs reads ef_store_fsyncs_total off the registry.
func storeFsyncs(t *testing.T, o *obs.Obs) int {
	t.Helper()
	var b strings.Builder
	if err := o.Metrics.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	var n int
	for _, line := range strings.Split(b.String(), "\n") {
		if _, err := fmt.Sscanf(line, "ef_store_fsyncs_total %d", &n); err == nil {
			return n
		}
	}
	t.Fatal("ef_store_fsyncs_total is not on /metrics")
	return 0
}

// TestJournalFailureAppliesNothing holds record-then-apply from the failing
// side: once the journal refuses a record, the op that record carried must
// not be applied, whichever entry point it came through. Each case closes the
// store under a platform mid-script, moves the clock, and calls one entry;
// the call must fail with the wedge error or do nothing, and every job, plan
// and cluster figure must read as it did before the failure.
func TestJournalFailureAppliesNothing(t *testing.T) {
	req := SubmitRequest{Model: "resnet50", GlobalBatch: 128, Iterations: 50000, DeadlineSeconds: 4000}
	for _, c := range []struct {
		name string
		do   func(p *Platform) error
	}{
		{"submit", func(p *Platform) error { _, err := p.Submit(req); return err }},
		{"batch", func(p *Platform) error { _, err := p.SubmitBatch([]SubmitRequest{req, req}); return err }},
		{"cancel", func(p *Platform) error { return p.Cancel("job-0001") }},
		{"node-down", func(p *Platform) error { _, err := p.NodeDown(0); return err }},
		{"node-up", func(p *Platform) error { return p.NodeUp(1) }}, // the script's fifth op took server 1 down
		{"tick", func(p *Platform) error { p.Tick(); return nil }},
	} {
		t.Run(c.name, func(t *testing.T) {
			clk := newStateClock()
			p, st := openDurable(t, t.TempDir(), clk, nil)
			for _, op := range crashScript()[:5] {
				applyOp(t, p, clk, op)
			}
			if s, err := p.Get("job-0001"); err != nil || s.State != "running" && s.State != "admitted" {
				t.Fatalf("job-0001 = %+v, %v; the case needs it active", s, err)
			}
			before := finalState(p)
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			clk.Advance(30)
			if err := c.do(p); err != nil && !strings.Contains(err.Error(), "journal failed") {
				t.Fatalf("err = %v, want the wedge error", err)
			}
			if after := finalState(p); after != before {
				t.Fatalf("an op the journal refused was applied:\nbefore %s\nafter  %s", before, after)
			}
		})
	}
}

// journaledState renders everything a snapshot holds: head, every job, tail.
func journaledState(t *testing.T, p *Platform) string {
	t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	st := platformState{stateHead: p.stateHeadLocked(), stateTail: p.stateTailLocked()}
	for _, j := range p.all {
		var js jobState
		fillJobState(&js, j)
		st.Jobs = append(st.Jobs, js)
	}
	sort.Slice(st.Jobs, func(i, k int) bool { return st.Jobs[i].ID < st.Jobs[k].ID })
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestReadsChangeNoJournaledState: a read is a clock observation and nothing
// else. At a frozen clock, no read may change what a snapshot would hold —
// a change there is state no journal record carries, which replay would not
// reproduce.
func TestReadsChangeNoJournaledState(t *testing.T) {
	clk := newStateClock()
	p, _ := openDurable(t, t.TempDir(), clk, nil)
	for _, op := range crashScript()[:9] {
		applyOp(t, p, clk, op)
	}
	before := journaledState(t, p)
	for _, r := range []struct {
		name string
		read func()
	}{
		{"Get", func() { p.Get("job-0001") }},
		{"Get-unknown", func() { p.Get("job-9999") }},
		{"List", func() { p.List() }},
		{"Cluster", func() { p.Cluster() }},
		{"Plans", func() { p.Plans() }},
		{"TenantUsage", func() { p.TenantUsage() }},
	} {
		r.read()
		if after := journaledState(t, p); after != before {
			t.Errorf("%s at a frozen clock changed journaled state:\nbefore %s\nafter  %s", r.name, before, after)
		}
	}
}

// FuzzReplayRecord feeds replay's decode arbitrary records — any kind, any
// time, any op body — on a platform part-way through the crash script. The
// envelope carries the trail the platform holds, so every input gets past
// the divergence check to the decode and the apply. Each must return an
// error or apply; none may panic, and an applied one must leave a state a
// snapshot can encode.
func FuzzReplayRecord(f *testing.F) {
	dir := f.TempDir()
	clk := newStateClock()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		f.Fatal(err)
	}
	p, err := NewPlatform(Options{Clock: clk.Now, Store: st})
	if err != nil {
		f.Fatal(err)
	}
	for _, op := range crashScript() {
		applyOp(f, p, clk, op)
	}
	if err := st.Close(); err != nil {
		f.Fatal(err)
	}
	st, err = store.Open(dir, store.Options{})
	if err != nil {
		f.Fatal(err)
	}
	defer st.Close()
	tail := st.RecoveredTail()
	const prefix = 5 // three submissions, a clock reading and a node failure
	for _, rec := range tail {
		var body struct {
			Op json.RawMessage `json:"op"`
		}
		if err := json.Unmarshal(rec.Data, &body); err != nil {
			f.Fatal(err)
		}
		f.Add(rec.Kind, rec.Time, []byte(body.Op))
	}
	f.Add("cancel", 1e300, []byte(`{"id":"job-0001"}`))
	f.Add("node-down", 200.0, []byte(`{"server":-3}`))
	f.Add("advance", math.NaN(), []byte(nil))
	f.Add("submit", -1.0, []byte(`{"model":"bert","global_batch":64,"iterations":1,"best_effort":true}`))
	f.Fuzz(func(t *testing.T, kind string, at float64, op []byte) {
		p, err := newPlatform(Options{Clock: newStateClock().Now})
		if err != nil {
			t.Fatal(err)
		}
		p.mu.Lock()
		defer p.mu.Unlock()
		for _, rec := range tail[:prefix] {
			if err := p.replayRecordLocked(rec); err != nil {
				t.Fatal(err)
			}
		}
		data := fmt.Sprintf(`{"trail":%d}`, p.trail)
		if len(op) > 0 {
			data = fmt.Sprintf(`{"trail":%d,"op":%s}`, p.trail, op)
		}
		rec := store.Record{LSN: prefix + 1, Time: at, Kind: kind, Data: []byte(data)}
		if err := p.replayRecordLocked(rec); err != nil {
			return
		}
		if p.lsn != rec.LSN {
			t.Fatalf("record %d replayed without error but not applied (lsn %d)", rec.LSN, p.lsn)
		}
		if _, err := json.Marshal(platformState{stateHead: p.stateHeadLocked(), stateTail: p.stateTailLocked()}); err != nil {
			t.Fatalf("replaying %s at %v left a state no snapshot can hold: %v", kind, at, err)
		}
	})
}
