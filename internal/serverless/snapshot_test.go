package serverless

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/elasticflow/elasticflow/internal/store"
)

// stateLocked is the snapshot oracle: the whole platformState built in one
// go, every job re-rendered, sorted by ID. json.Marshal of it defines the
// snapshot payload; the live path (snapshotAssembler.assemble) must reproduce it
// byte for byte from its cached pieces.
func (p *Platform) stateLocked() platformState {
	st := platformState{stateHead: p.stateHeadLocked(), stateTail: p.stateTailLocked()}
	for _, j := range p.all {
		var js jobState
		fillJobState(&js, j)
		st.Jobs = append(st.Jobs, js)
	}
	sort.Slice(st.Jobs, func(i, k int) bool { return st.Jobs[i].ID < st.Jobs[k].ID })
	return st
}

// snapshotsChecked counts the payloads the oracle hook has verified.
var snapshotsChecked atomic.Int64

// TestMain holds every snapshot any test in this package takes — the
// crash-replay suites included — against the oracle.
func TestMain(m *testing.M) {
	testHookSnapshot = checkSnapshotLocked
	os.Exit(m.Run())
}

// checkSnapshotLocked panics unless the streamed payload equals
// json.Marshal(p.stateLocked()) and restoring it yields that state again. It
// runs on the snapshotting goroutine, which holds p.mu.
func checkSnapshotLocked(p *Platform, parts [][]byte) {
	got := bytes.Join(parts, nil)
	want, err := json.Marshal(p.stateLocked())
	if err != nil {
		panic(err)
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		lo := i - 80
		if lo < 0 {
			lo = 0
		}
		clip := func(b []byte) []byte {
			if hi := i + 80; hi < len(b) {
				return b[lo:hi]
			}
			return b[lo:]
		}
		panic(fmt.Sprintf("streamed snapshot (%d bytes) differs from json.Marshal(stateLocked()) (%d bytes) at offset %d:\n got …%s…\nwant …%s…",
			len(got), len(want), i, clip(got), clip(want)))
	}
	q, err := newPlatform(Options{Topology: p.cluster.Config()})
	if err != nil {
		panic(err)
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if err := q.restoreStateLocked(got); err != nil {
		panic(fmt.Sprintf("streamed snapshot does not restore: %v", err))
	}
	back, err := json.Marshal(q.stateLocked())
	if err != nil {
		panic(err)
	}
	if !bytes.Equal(back, want) {
		panic("restoring the streamed snapshot and capturing the state again gives different bytes")
	}
	snapshotsChecked.Add(1)
}

// TestSnapshotOracle is one scripted run through everything a snapshot can
// hold, with the hook above checking every payload. Phase 1 snapshots after
// every mutation: admissions, a drop with a counter-offer, a best-effort job
// (+Inf deadline), a soft deadline, a cancel, a node failure that evicts and
// puts a deadline at risk (the infeasible map and a down-server reservation
// in the payload), the recovery, completions. Then the platform crashes and
// recovers with an empty cache; phase 2 pushes the job count past 10 000 —
// where "job-10000" sorts before "job-9999", so the done list takes
// insertions far from its end — with another cold-cache recovery half way.
func TestSnapshotOracle(t *testing.T) {
	e16, e8 := feasibilityBracket(t)
	dir := t.TempDir()
	clk := newStateClock()
	open := func(every int) *Platform {
		t.Helper()
		st, err := store.Open(dir, store.Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		p, err := Recover(Options{Clock: clk.Now, Store: st, SnapshotEvery: every})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	before := snapshotsChecked.Load()

	p := open(1)
	ops := []scriptOp{
		{Action: "submit", Req: SubmitRequest{Model: "resnet50", GlobalBatch: 256, Iterations: 4e6, DeadlineSeconds: (e16 + e8) / 2}},
		{Dt: 1, Action: "submit", Req: SubmitRequest{Model: "resnet50", GlobalBatch: 256, Iterations: 4e6, DeadlineSeconds: e16 / 4}},
		{Dt: 1, Action: "submit", Req: SubmitRequest{User: "be", Tenant: "acme", Model: "gpt2", GlobalBatch: 128, Iterations: 30000, BestEffort: true}},
		{Dt: 1, Action: "submit", Req: SubmitRequest{User: `q"<&>\`, Model: "inception3", GlobalBatch: 64, Iterations: 40000, DeadlineSeconds: 2500, SoftDeadline: true}},
		{Dt: 1, Action: "submit", Req: SubmitRequest{Model: "bert", GlobalBatch: 64, Iterations: 200, DeadlineSeconds: 3000}},
		{Dt: 5, Action: "down", Server: 1},
		{Dt: 5, Action: "tick"},
		{Dt: 5, Action: "cancel", ID: "job-0003"},
		{Dt: 20, Action: "up", Server: 1},
		{Dt: 2000, Action: "tick"},
		{Dt: 5, Action: "cancel", ID: "job-0001"}, // or it holds the cluster for all of phase 2
	}
	atRisk := false
	for i, op := range ops {
		line := applyOp(t, p, clk, op)
		switch {
		case strings.Contains(line, "-err:"):
			t.Fatalf("op %d failed: %s", i, line)
		case i == 1 && !strings.Contains(line, `"earliest_feasible_sec"`):
			t.Fatalf("op 1 should drop with a counter-offer: %s", line)
		case op.Action == "down":
			st, err := p.Get("job-0001")
			if err != nil {
				t.Fatal(err)
			}
			atRisk = st.DeadlineAtRisk
		}
	}
	if !atRisk {
		t.Fatal("the node failure put no deadline at risk; the infeasible map was never in a payload")
	}
	if c := p.Cluster(); c.Completed == 0 || c.Dropped == 0 {
		t.Fatalf("phase 1 ended with %+v, want a completion and a refusal", c)
	}
	if st, err := p.Get("job-0003"); err != nil || st.State != "cancelled" || st.Class != "best-effort" {
		t.Fatalf("cancelled best-effort job-0003 = %+v, %v", st, err)
	}
	if n := snapshotsChecked.Load() - before; n < int64(len(ops)) {
		t.Fatalf("phase 1 checked %d snapshots over %d ops", n, len(ops))
	}

	// Phase 2: bulk submissions in batches. Most jobs finish within a few
	// rounds, every seventh outlives many, some are refused.
	const total, batch = 10050, 50
	submitted := 0
	round := func(p *Platform) {
		reqs := make([]SubmitRequest, batch)
		for i := range reqs {
			n := submitted + i
			req := SubmitRequest{Tenant: fmt.Sprintf("t%d", n%3), Model: "resnet50", GlobalBatch: 128, Iterations: 40, DeadlineSeconds: 50000}
			switch {
			case n%7 == 0:
				req.Iterations = 20000
			case n%11 == 0:
				req.Iterations, req.DeadlineSeconds = 1e9, 1
			}
			reqs[i] = req
		}
		clk.Advance(100)
		if _, err := p.SubmitBatch(reqs); err != nil {
			t.Fatal(err)
		}
		submitted += batch
		for i := 0; i < 4; i++ { // a job finishes at the tick that sees it done
			clk.Advance(100)
			p.Tick()
		}
	}
	// The cadence counts journal records, and the journal holds decisions
	// only: a round is five of them (one batch, four ticks), phase 2 about a
	// thousand, so a snapshot every 120 records is eight checked payloads.
	const every = 120
	p = open(every) // crash: the first platform is abandoned without Shutdown
	mid := snapshotsChecked.Load()
	for submitted < total/2 {
		round(p)
	}
	p = open(every)
	for submitted < total {
		round(p)
	}
	if n := snapshotsChecked.Load() - mid; n < 6 {
		t.Fatalf("phase 2 checked only %d snapshots", n)
	}
	if c := p.Cluster(); c.Completed < total/2 || c.Admitted == 0 {
		t.Fatalf("phase 2 ended with %+v, want mostly terminal jobs and some active", c)
	}
	if err := p.Shutdown(); err != nil {
		t.Fatal(err)
	}

	// What reached the disk is the oracle's payload too, in oracle order.
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	payload, _, ok := st.RecoveredSnapshot()
	if !ok {
		t.Fatal("no snapshot on disk after Shutdown")
	}
	p.mu.Lock()
	want, err := json.Marshal(p.stateLocked())
	p.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payload, want) {
		t.Fatal("final snapshot on disk differs from json.Marshal(stateLocked())")
	}
	i9999 := bytes.Index(payload, []byte(`{"id":"job-9999"`))
	i10000 := bytes.Index(payload, []byte(`{"id":"job-10000"`))
	if i10000 < 0 || i9999 < i10000 {
		t.Fatalf("job-10000 at offset %d, job-9999 at %d: want both, in string order", i10000, i9999)
	}
}

// TestSnapshotShardsConcurrently runs two durable platforms — two front-door
// shards — snapshotting at once. Each owns its assembler; sharing one would
// be a data race (and concurrent map writes, were it a map).
func TestSnapshotShardsConcurrently(t *testing.T) {
	var wg sync.WaitGroup
	for shard := 0; shard < 2; shard++ {
		st, err := store.Open(t.TempDir(), store.Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		clk := newStateClock()
		p, err := NewPlatform(Options{Clock: clk.Now, Store: st, SnapshotEvery: 4, JobPrefix: fmt.Sprintf("s%d-", shard)})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				clk.Advance(30)
				if _, err := p.Submit(SubmitRequest{Model: "resnet50", GlobalBatch: 128, Iterations: 2000, DeadlineSeconds: 50000}); err != nil {
					t.Error(err)
					return
				}
			}
			if err := p.Shutdown(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}
