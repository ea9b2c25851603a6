package sched

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/elasticflow/elasticflow/internal/job"
	"github.com/elasticflow/elasticflow/internal/model"
	"github.com/elasticflow/elasticflow/internal/obs"
	"github.com/elasticflow/elasticflow/internal/obs/tracing"
	"github.com/elasticflow/elasticflow/internal/throughput"
	"github.com/elasticflow/elasticflow/internal/topology"
)

// fixed is a scheduler that returns one canned decision.
type fixed struct{ dec Decision }

func (fixed) Name() string                                  { return "fixed" }
func (fixed) Admit(float64, *job.Job, []*job.Job, int) bool { return true }
func (f fixed) Schedule(float64, []*job.Job, int) Decision  { return f.dec }

// seed is one job's state before the pass: where it sits (size 0 = nowhere)
// and what it has done so far.
type seed struct {
	id     string
	block  topology.Block
	done   float64
	frozen float64
}

// want is one job's state after the pass. block size 0 = holds nothing.
type want struct {
	gpus     int
	state    job.State
	block    topology.Block
	frozen   float64
	rescales int
}

// newEngine builds an engine over a 2×8 cluster (one rack: NVLink inside a
// 4-GPU socket, PCIe inside a server, the 20 GB/s NIC between the two) whose
// emitter renders every event as "kind job k=v ..." into the returned log.
func newEngine(t *testing.T, seeds []seed) (*Engine, []*job.Job, *[]string) {
	t.Helper()
	cluster, err := topology.New(topology.Config{Servers: 2, GPUsPerServer: 8})
	if err != nil {
		t.Fatal(err)
	}
	log := &[]string{}
	e := &Engine{Cluster: cluster, Sched: fixed{}, Costs: throughput.NewEstimator(model.DefaultA100()).CostModel(), Obs: obs.NewDefault()}
	e.Emit = func(now float64, kind, jobID string, fields ...tracing.Attr) {
		kv := make([]string, len(fields))
		for i, f := range fields {
			kv[i] = f.Key + "=" + f.Value
		}
		*log = append(*log, strings.TrimSpace(fmt.Sprintf("%s %s %s", kind, jobID, strings.Join(kv, " "))))
	}
	var active []*job.Job
	for _, s := range seeds {
		// 10 s in-place rescale; 20 GB checkpoint = 1 s over the NIC,
		// 0.3125 s over PCIe; 13 s conservative migration price.
		j := &job.Job{
			ID: s.id, TotalIters: 1000, Deadline: 1e6, DoneIters: s.done, FrozenUntil: s.frozen,
			Curve:              throughput.MustCurve(map[int]float64{1: 1, 2: 2, 4: 4, 8: 8}),
			RescaleOverheadSec: 10, CheckpointBytes: 20e9, MigrateOverheadSec: 13,
			State: job.Admitted,
		}
		if s.block.Size > 0 {
			if err := cluster.Reserve(s.id, s.block); err != nil {
				t.Fatal(err)
			}
			j.GPUs, j.State = s.block.Size, job.Running
		}
		active = append(active, j)
	}
	return e, active, log
}

func blk(start, size int) topology.Block { return topology.Block{Start: start, Size: size} }

func check(t *testing.T, e *Engine, active []*job.Job, wants map[string]want) {
	t.Helper()
	for _, j := range active {
		w, ok := wants[j.ID]
		if !ok {
			continue
		}
		b, _ := e.Cluster.Placement(j.ID)
		got := want{gpus: j.GPUs, state: j.State, block: b, frozen: j.FrozenUntil, rescales: j.Rescales}
		if got.gpus != w.gpus || got.state != w.state || got.block != w.block || got.rescales != w.rescales ||
			math.Abs(got.frozen-w.frozen) > 1e-9 {
			t.Errorf("job %s = %+v, want %+v", j.ID, got, w)
		}
	}
}

// TestEngineApply is the table the old sim/live parity tests became: one
// decision applied to one cluster state, with the resulting placements,
// freeze charges, rescale budget and event stream.
func TestEngineApply(t *testing.T) {
	const now = 50.0
	// The fragmenting pair every bystander row uses: f pins the low half
	// of server 0, b sits on server 1, so an 8-GPU placement must compact
	// b across the NIC into [4,6).
	bystander := []seed{{id: "f", block: blk(0, 4), done: 1}, {id: "b", block: blk(8, 2), done: 1}, {id: "a"}}
	bystanderDec := map[string]int{"f": 4, "b": 2, "a": 8}
	cases := []struct {
		name          string
		seeds         []seed
		dec           map[string]int
		placementFree bool
		noOverheads   bool
		wants         map[string]want
		events        []string
	}{
		{
			name:   "cross-server growth pays the NIC",
			seeds:  []seed{{id: "a", block: blk(0, 2), done: 1}, {id: "f1", block: blk(2, 2)}, {id: "f2", block: blk(4, 4)}},
			dec:    map[string]int{"a": 8, "f1": 2, "f2": 4},
			wants:  map[string]want{"a": {8, job.Running, blk(8, 8), now + 11, 1}},
			events: []string{"resize a gpus=8 was=2", "rescale a gpus=8"},
		},
		{
			name:   "first placement is free",
			seeds:  []seed{{id: "a"}},
			dec:    map[string]int{"a": 4},
			wants:  map[string]want{"a": {4, job.Running, blk(0, 4), 0, 0}},
			events: []string{"place a gpus=4"},
		},
		{
			name:   "resume from preemption pays the conservative migration price",
			seeds:  []seed{{id: "a", done: 1}},
			dec:    map[string]int{"a": 2},
			wants:  map[string]want{"a": {2, job.Running, blk(0, 2), now + 13, 1}},
			events: []string{"resize a gpus=2 was=0", "rescale a gpus=2"},
		},
		{
			name:          "placement-free models no links and no blocks",
			seeds:         []seed{{id: "a", done: 1}},
			dec:           map[string]int{"a": 3},
			placementFree: true,
			wants:         map[string]want{"a": {3, job.Running, topology.Block{}, now + 10, 1}},
			events:        []string{"resize a gpus=3 was=0", "rescale a gpus=3"},
		},
		{
			name:  "suspension releases the block and charges nothing",
			seeds: []seed{{id: "a", block: blk(0, 4), done: 1}},
			dec:   map[string]int{},
			wants: map[string]want{"a": {0, job.Admitted, topology.Block{}, 0, 0}},
		},
		{
			name:  "equal sizes place in ID order whatever order active has",
			seeds: []seed{{id: "z"}, {id: "y"}, {id: "x"}},
			dec:   map[string]int{"z": 4, "y": 4, "x": 8},
			wants: map[string]want{
				"x": {8, job.Running, blk(0, 8), 0, 0},
				"y": {4, job.Running, blk(8, 4), 0, 0},
				"z": {4, job.Running, blk(12, 4), 0, 0},
			},
			events: []string{"place x gpus=8", "place y gpus=4", "place z gpus=4"},
		},
		{
			name:  "migrated bystander is a charged rescale",
			seeds: bystander,
			dec:   bystanderDec,
			wants: map[string]want{
				"a": {8, job.Running, blk(8, 8), 0, 0},
				"b": {2, job.Running, blk(4, 2), now + 11, 1},
				"f": {4, job.Running, blk(0, 4), 0, 0},
			},
			events: []string{"migrate b from=[8,10) to=[4,6)", "rescale b gpus=2", "place a gpus=8"},
		},
		{
			// The bugfix row: b is still frozen until t=200 by an earlier
			// cross-rack move; the cheap bystander move at t=50 must not
			// rewind that to 61.
			name:   "freeze never shortens",
			seeds:  []seed{bystander[0], {id: "b", block: blk(8, 2), done: 1, frozen: 200}, bystander[2]},
			dec:    bystanderDec,
			wants:  map[string]want{"b": {2, job.Running, blk(4, 2), 200, 1}},
			events: []string{"migrate b from=[8,10) to=[4,6)", "rescale b gpus=2", "place a gpus=8"},
		},
		{
			name:        "NoOverheads still migrates, charges nobody",
			seeds:       append([]seed{{id: "c", block: blk(4, 2), done: 1}}, bystander...),
			dec:         map[string]int{"f": 4, "b": 2, "a": 8, "c": 1},
			noOverheads: true,
			wants: map[string]want{
				"b": {2, job.Running, blk(4, 2), 0, 0},
				"c": {1, job.Running, blk(6, 1), 0, 0},
			},
			events: []string{"migrate b from=[8,10) to=[4,6)", "place a gpus=8", "resize c gpus=1 was=2"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, active, log := newEngine(t, tc.seeds)
			e.PlacementFree, e.NoOverheads = tc.placementFree, tc.noOverheads
			e.Sched = fixed{Decision{Alloc: tc.dec, Wake: 77}}
			if wake := e.Reschedule(now, active, 16); wake != 77 {
				t.Errorf("Reschedule returned wake %v, want the decision's 77", wake)
			}
			check(t, e, active, tc.wants)
			if got, want := strings.Join(*log, "; "), strings.Join(tc.events, "; "); got != want {
				t.Errorf("events = %q, want %q", got, want)
			}
		})
	}
}

// TestEngineInPlacePricesNoWire covers the one pricing case a decision
// cannot produce on a buddy allocator (a changed count always changes the
// block): a job found on the block it left pays the plain rescale overhead.
func TestEngineInPlacePricesNoWire(t *testing.T) {
	e, active, _ := newEngine(t, []seed{{id: "a", block: blk(8, 2), done: 1}})
	if got := e.moveCharge(change{j: active[0], gpus: 2, from: blk(8, 2)}); math.Abs(got-10) > 1e-9 {
		t.Errorf("in-place charge = %v, want RescaleOverheadSec 10", got)
	}
}

// TestEngineBareEmitsNoFields pins the simulator's no-sink fast path: with
// Obs nil the host still sees every kind (it counts them) but nothing is
// formatted.
func TestEngineBareEmitsNoFields(t *testing.T) {
	e, active, _ := newEngine(t, []seed{{id: "f", block: blk(0, 4), done: 1}, {id: "b", block: blk(8, 2), done: 1}, {id: "a"}})
	e.Obs = nil
	var kinds []string
	e.Emit = func(_ float64, kind, _ string, fields ...tracing.Attr) {
		if len(fields) != 0 {
			t.Errorf("%s event carries %d fields with no sink", kind, len(fields))
		}
		kinds = append(kinds, kind)
	}
	e.Apply(1, Decision{Alloc: map[string]int{"f": 4, "b": 2, "a": 8}}, active, 16)
	e.Retire(2, active[2])
	if _, err := e.Evict(3, 0, active); err != nil {
		t.Fatal(err)
	}
	if err := e.Restore(4, 0); err != nil {
		t.Fatal(err)
	}
	if want := []string{"migrate", "rescale", "place", "complete", "failure", "evict", "evict", "recovery"}; !reflect.DeepEqual(kinds, want) {
		t.Errorf("kinds = %v, want %v", kinds, want)
	}
	e.Emit = func(float64, string, string, ...tracing.Attr) {}
	if n := testing.AllocsPerRun(100, func() { e.freeze(5, active[1], 1) }); n != 0 {
		t.Errorf("a charged rescale allocates %v times with no sink wired, want 0", n)
	}
}

func TestEngineOvercommitPanics(t *testing.T) {
	e, active, _ := newEngine(t, []seed{{id: "a"}})
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "overcommitted 32/16") {
			t.Errorf("recover() = %v, want the overcommit panic", r)
		}
	}()
	e.Apply(0, Decision{Alloc: map[string]int{"a": 32}}, active, 16)
}

func TestEngineRetire(t *testing.T) {
	e, active, log := newEngine(t, []seed{{id: "a", block: blk(0, 4), done: 1000}, {id: "late", block: blk(4, 4), done: 1000}})
	active[1].Deadline = 5
	if met := e.Retire(9, active[0]); !met {
		t.Error("a finished at 9 against deadline 1e6 and was not reported met")
	}
	if met := e.Retire(9, active[1]); met {
		t.Error("late finished at 9 against deadline 5 and was reported met")
	}
	check(t, e, active, map[string]want{
		"a":    {0, job.Completed, topology.Block{}, 0, 0},
		"late": {0, job.Completed, topology.Block{}, 0, 0},
	})
	if active[0].CompletionTime != 9 || e.Cluster.FreeGPUs() != 16 {
		t.Errorf("completion %v free %d, want 9 and the whole cluster free", active[0].CompletionTime, e.Cluster.FreeGPUs())
	}
	if want := []string{"complete a met=true iters=1000 rescales=0", "complete late met=false iters=1000 rescales=0"}; !reflect.DeepEqual(*log, want) {
		t.Errorf("events = %q, want %q", *log, want)
	}
}

// TestEngineEvictRestore walks a server through failure and recovery: its
// jobs fall back to Admitted and resume elsewhere at the conservative price,
// the reservation keeps placements off the dead block, and recovery returns
// the capacity.
func TestEngineEvictRestore(t *testing.T) {
	e, active, log := newEngine(t, []seed{{id: "a", block: blk(8, 4), done: 1}, {id: "b", block: blk(0, 2), done: 1}})
	evicted, err := e.Evict(10, 1, active)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(evicted, []string{"a"}) {
		t.Errorf("evicted %v, want [a]", evicted)
	}
	check(t, e, active, map[string]want{
		"a": {0, job.Admitted, topology.Block{}, 0, 0},
		"b": {2, job.Running, blk(0, 2), 0, 0},
	})
	if down, ok := e.Cluster.Placement("__down-server-1__"); !ok || down != blk(8, 8) {
		t.Errorf("down reservation = %v %v, want [8,16)", down, ok)
	}
	e.Apply(10, Decision{Alloc: map[string]int{"a": 4, "b": 2}}, active, 8)
	check(t, e, active, map[string]want{"a": {4, job.Running, blk(4, 4), 10 + 13, 1}})
	if err := e.Restore(20, 1); err != nil {
		t.Fatal(err)
	}
	if free := e.Cluster.FreeGPUs(); free != 10 {
		t.Errorf("free GPUs after recovery = %d, want 10", free)
	}
	if err := e.Restore(21, 1); err == nil {
		t.Error("restoring a server that is up did not fail")
	}
	want := []string{"failure  server=1", "evict a server=1", "resize a gpus=4 was=0", "rescale a gpus=4", "recovery  server=1"}
	if !reflect.DeepEqual(*log, want) {
		t.Errorf("events = %q, want %q", *log, want)
	}
}

func TestEfficiency(t *testing.T) {
	j := &job.Job{Curve: throughput.MustCurve(map[int]float64{1: 2, 4: 6}), GPUs: 4}
	if got := Efficiency(j); math.Abs(got-3) > 1e-12 {
		t.Errorf("Efficiency = %v, want 6/2", got)
	}
	// Memory floor at 2 workers: the per-GPU rate at the floor stands in
	// for the unmeasurable single-GPU throughput.
	floor := &job.Job{Curve: throughput.MustCurve(map[int]float64{2: 3, 4: 6}), MinGPUs: 2, GPUs: 4}
	if got := Efficiency(floor); math.Abs(got-4) > 1e-12 {
		t.Errorf("Efficiency at a 2-GPU floor = %v, want 6/(3/2)", got)
	}
}
