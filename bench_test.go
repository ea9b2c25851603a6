package elasticflow_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/elasticflow/elasticflow/internal/allreduce"
	"github.com/elasticflow/elasticflow/internal/core"
	"github.com/elasticflow/elasticflow/internal/experiments"
	"github.com/elasticflow/elasticflow/internal/job"
	"github.com/elasticflow/elasticflow/internal/model"
	"github.com/elasticflow/elasticflow/internal/obs"
	"github.com/elasticflow/elasticflow/internal/plan"
	"github.com/elasticflow/elasticflow/internal/serverless"
	"github.com/elasticflow/elasticflow/internal/store"
	"github.com/elasticflow/elasticflow/internal/throughput"
	"github.com/elasticflow/elasticflow/internal/topology"
	"github.com/elasticflow/elasticflow/internal/trace"
)

// benchExperiment wraps one paper experiment as a benchmark. Quick mode
// keeps `go test -bench=.` tractable; run cmd/efbench for the full scales.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	gen := experiments.Registry[id]
	if gen == nil {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		table, err := gen(experiments.Options{Quick: true})
		if err != nil {
			b.Fatal(err)
		}
		if len(table.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

// One benchmark per table and figure of the paper's evaluation (§6).

func BenchmarkTable1ModelPool(b *testing.B)           { benchExperiment(b, "table1") }
func BenchmarkFig2aScalingCurves(b *testing.B)        { benchExperiment(b, "fig2a") }
func BenchmarkFig2bPlacementThroughput(b *testing.B)  { benchExperiment(b, "fig2b") }
func BenchmarkFig3MotivatingExample(b *testing.B)     { benchExperiment(b, "fig3") }
func BenchmarkFig6aTestbedSmall(b *testing.B)         { benchExperiment(b, "fig6a") }
func BenchmarkFig6bTestbedLarge(b *testing.B)         { benchExperiment(b, "fig6b") }
func BenchmarkFig7aAllocationTimeline(b *testing.B)   { benchExperiment(b, "fig7a") }
func BenchmarkFig7bAdmissionTimeline(b *testing.B)    { benchExperiment(b, "fig7b") }
func BenchmarkFig8aSimulationWithPollux(b *testing.B) { benchExperiment(b, "fig8a") }
func BenchmarkFig8bAllTraces(b *testing.B)            { benchExperiment(b, "fig8b") }
func BenchmarkFig9Ablation(b *testing.B)              { benchExperiment(b, "fig9") }
func BenchmarkFig10ClusterEfficiency(b *testing.B)    { benchExperiment(b, "fig10") }
func BenchmarkFig11BestEffort(b *testing.B)           { benchExperiment(b, "fig11") }
func BenchmarkFig12aProfilingOverhead(b *testing.B)   { benchExperiment(b, "fig12a") }
func BenchmarkFig12bScalingOverhead(b *testing.B)     { benchExperiment(b, "fig12b") }

func BenchmarkFidelitySimVsLive(b *testing.B) { benchExperiment(b, "fidelity") }

// Ablation benches for the design choices DESIGN.md calls out.

func BenchmarkAblationIncrement(b *testing.B) { benchExperiment(b, "abl-increment") }
func BenchmarkAblationOverhead(b *testing.B)  { benchExperiment(b, "abl-overhead") }
func BenchmarkAblationSlot(b *testing.B)      { benchExperiment(b, "abl-slot") }
func BenchmarkAblationCurves(b *testing.B)    { benchExperiment(b, "abl-curves") }
func BenchmarkAblationReserve(b *testing.B)   { benchExperiment(b, "abl-reserve") }
func BenchmarkAblationPlacement(b *testing.B) { benchExperiment(b, "abl-placement") }

// Micro-benchmarks of the core machinery.

func benchJobs(n, gpus int) []*job.Job {
	curve := throughput.MustCurve(map[int]float64{1: 1, 2: 1.8, 4: 3.1, 8: 4.8, 16: 6.2, 32: 7.1})
	jobs := make([]*job.Job, n)
	for i := range jobs {
		jobs[i] = &job.Job{
			ID:          fmt.Sprintf("j%03d", i),
			GlobalBatch: 64,
			TotalIters:  float64(1000 + 137*i%5000),
			SubmitTime:  0,
			Deadline:    float64(1800 + 211*i%14000),
			Class:       job.SLO,
			Curve:       curve,
			MinGPUs:     1,
			MaxGPUs:     32,
		}
	}
	return jobs
}

// BenchmarkAdmissionControl measures Algorithm 1 from scratch on a loaded
// 128-GPU cluster (plan cache off: every iteration re-fills both passes).
func BenchmarkAdmissionControl(b *testing.B) {
	ef := core.New(core.Options{PowerOfTwo: true, DisablePlanCache: true})
	jobs := benchJobs(64, 128)
	cand := jobs[len(jobs)-1]
	active := jobs[:len(jobs)-1]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ef.Admit(0, cand, active, 128)
	}
}

// BenchmarkAdmissionControlCached is the same decision on the steady-state
// path: an unchanged job set hits the plan cache, the common case for a
// platform re-checking admissions under heavy traffic.
func BenchmarkAdmissionControlCached(b *testing.B) {
	ef := core.NewDefault()
	jobs := benchJobs(64, 128)
	cand := jobs[len(jobs)-1]
	active := jobs[:len(jobs)-1]
	ef.Admit(0, cand, active, 128) // warm
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ef.Admit(0, cand, active, 128)
	}
}

// BenchmarkResourceAllocation measures Algorithm 2 (Schedule) with 64 jobs,
// plans computed from scratch (plan cache off).
func BenchmarkResourceAllocation(b *testing.B) {
	ef := core.New(core.Options{PowerOfTwo: true, DisablePlanCache: true})
	jobs := benchJobs(64, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ef.Schedule(0, jobs, 128)
	}
}

// BenchmarkResourceAllocationCached measures the steady-state Schedule tick:
// nothing changed since the last call, so the fill pass is pure cache hits
// and only the greedy spare-capacity phase runs live.
func BenchmarkResourceAllocationCached(b *testing.B) {
	ef := core.NewDefault()
	jobs := benchJobs(64, 128)
	ef.Schedule(0, jobs, 128) // warm
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ef.Schedule(0, jobs, 128)
	}
}

// BenchmarkScheduleMovedNow measures the decision both hosts pay for most
// often: Schedule at a now one slot past the last over an unchanged 200-job
// set. The plan cache is keyed on the instant, so every iteration refills
// every plan; what it must not do is allocate them. Deadlines move with now
// so that iterations are alike at any -benchtime.
func BenchmarkScheduleMovedNow(b *testing.B) {
	const gpus, slot = 512, 60.0
	ef := core.NewDefault()
	jobs := benchJobs(200, gpus)
	now := 0.0
	ef.Schedule(now, jobs, gpus) // warm: the scheduler's buffers reach their sizes
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += slot
		for _, j := range jobs {
			j.Deadline += slot
		}
		if dec := ef.Schedule(now, jobs, gpus); len(dec.Alloc) != len(jobs) {
			b.Fatalf("Schedule placed %d of %d jobs", len(dec.Alloc), len(jobs))
		}
	}
}

// BenchmarkScheduleRescaled measures Schedule at a moved now over 200 jobs
// that are running at the worker counts the previous decision gave them,
// three in four with their rescale budget spent. Those jobs' voluntary
// expansions away from their live counts are refused on the budget alone.
// Deadlines move with now so that iterations are alike at any -benchtime.
func BenchmarkScheduleRescaled(b *testing.B) {
	const gpus, slot = 512, 60.0
	ef := core.NewDefault()
	jobs := benchJobs(200, gpus)
	dec := ef.Schedule(0, jobs, gpus)
	for i, j := range jobs {
		j.GPUs, j.DoneIters = dec.Alloc[j.ID], 1
		if i%4 != 0 {
			j.Rescales = 5 // core's default SafetyRescales
		}
	}
	now := 0.0
	step := func() {
		now += slot
		for _, j := range jobs {
			j.Deadline += slot
		}
		if dec := ef.Schedule(now, jobs, gpus); len(dec.Alloc) != len(jobs) {
			b.Fatalf("Schedule placed %d of %d jobs", len(dec.Alloc), len(jobs))
		}
	}
	step() // warm: the scheduler's buffers reach their sizes
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// counterOfferRefusal returns one refusal and its counter-offer search
// (CounterOffer) for a candidate refused early in the deadline
// order of 200 active jobs, eight of them demoted (far more work than their
// deadlines allow), on a scheduler that has already run it once, so its
// block and buffers are at their sizes. Every call is a fresh instant — now
// moves one slot and every deadline with it — so nothing is cached from the
// last and calls are alike however many are made. It fails tb on an
// admission or on no offer.
func counterOfferRefusal(tb testing.TB) func() {
	const gpus, slot = 512, 60.0
	ef := core.NewDefault()
	jobs := benchJobs(200, gpus)
	for i, j := range jobs[:8] {
		j.TotalIters, j.MaxGPUs, j.Deadline = 1e8, 2, float64(3600+1800*i)
	}
	cand := &job.Job{
		ID: "refused", GlobalBatch: 64, TotalIters: 40000, Deadline: 2400,
		Class: job.SLO, Curve: jobs[0].Curve, MinGPUs: 1, MaxGPUs: 32,
	}
	now := 0.0
	refuse := func() {
		now += slot
		cand.Deadline += slot
		for _, j := range jobs {
			j.Deadline += slot
		}
		if ef.Admit(now, cand, jobs, gpus) {
			tb.Fatal("the candidate was admitted")
		}
		if _, ok := ef.CounterOffer(now, cand, jobs, gpus); !ok {
			tb.Fatal("no counter-offer")
		}
	}
	refuse()
	return refuse
}

// BenchmarkCounterOffer measures what a refusal costs a platform: one
// counterOfferRefusal.
func BenchmarkCounterOffer(b *testing.B) {
	refuse := counterOfferRefusal(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		refuse()
	}
}

// TestCounterOfferAllocs pins the allocations of BenchmarkCounterOffer's
// refusal: with plans and snapshots stored as runs, every fill pass of it fits
// the scheduler's block and what is left is the verdict's and the search's
// own bookkeeping — 29 allocations, 12 KB, the same under -race. Copying plans
// slot by slot it was 298 allocations and 3.7 MB, most of them block spills.
func TestCounterOfferAllocs(t *testing.T) {
	refuse := counterOfferRefusal(t)
	if n := testing.AllocsPerRun(20, refuse); n > 29 {
		t.Errorf("a refusal and its counter-offer allocated %v times, want at most 29", n)
	}
}

// BenchmarkProgressiveFilling measures one Fill over a long horizon.
func BenchmarkProgressiveFilling(b *testing.B) {
	curve := throughput.MustCurve(map[int]float64{1: 1, 2: 1.8, 4: 3.1, 8: 4.8})
	d := plan.Demand{Curve: curve, Remaining: 5000, DeadlineSlot: 1440, MinGPUs: 1, MaxGPUs: 8}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f := plan.NewFiller(128, 60, true)
		f.Fill(d)
	}
}

// BenchmarkFillPhilly measures the fill kernel on the inputs the scheduler
// actually sees: the demands of a trace.PhillyScale prefix (the paper's job
// mix on 2,048 GPUs), filled in deadline order against the staircase of
// plans already committed — one Algorithm 1 fold per iteration.
func BenchmarkFillPhilly(b *testing.B) {
	const gpus, slot = 2048, 60.0
	tr := trace.PhillyScale(2048, 1)
	est := throughput.NewEstimator(model.DefaultA100())
	jobs, err := tr.Jobs(throughput.NewProfiler(est, 8, 128), est)
	if err != nil {
		b.Fatal(err)
	}
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].Deadline-jobs[i].SubmitTime < jobs[k].Deadline-jobs[k].SubmitTime })
	demands := make([]plan.Demand, len(jobs))
	for i, j := range jobs {
		demands[i] = plan.Demand{
			Curve:        j.Curve,
			Remaining:    j.TotalIters,
			DeadlineSlot: int((j.Deadline - j.SubmitTime) / slot),
			MinGPUs:      j.MinGPUs,
			MaxGPUs:      j.MaxGPUs,
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := plan.NewFiller(gpus, slot, true)
		satisfied := 0
		for _, d := range demands {
			if a := f.Fill(d); a.Satisfied {
				f.Commit(a)
				satisfied++
			}
		}
		if satisfied == 0 {
			b.Fatal("no Philly demand satisfiable on an empty cluster")
		}
	}
}

// BenchmarkFillContended measures one fill on a congested grid: 2 048 GPUs
// of which only 32 are free in the first 720 of 1 440 slots. Levels 32 and 64
// are ruled out before their walks, level 128 gets 32 GPUs in the congested
// slots and falls short part-way through them, and level 256 finishes.
func BenchmarkFillContended(b *testing.B) {
	const gpus, slot = 2048, 60.0
	f := plan.NewFiller(gpus, slot, true)
	f.Commit(plan.Allocation{Levels: []plan.Run{{Level: gpus - 32, End: 720}}})
	d := plan.Demand{
		Curve:        throughput.MustCurve(map[int]float64{32: 10, 64: 16, 128: 24, 256: 30}),
		Remaining:    1.6e6,
		DeadlineSlot: 1440,
		MinGPUs:      32,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if a := f.Fill(d); !a.Satisfied || a.GPUsAt(0) != 32 {
			b.Fatalf("fill %+v, want satisfied at 32 GPUs in slot 0", a)
		}
	}
}

// BenchmarkSnapshotRetained measures one snapshot of a durable platform that
// has been up for a while: 5 000 jobs it finished or refused and 200 it is
// still running. Each iteration is a 1 ms tick with SnapshotEvery = 1 — an
// advance record, then the snapshot; nothing completes and no decision
// re-runs. Fsync is off, so the figure is the assembly, checksum and write
// cost. The cost must follow the 200, not the 5 000 (DESIGN.md §11).
func BenchmarkSnapshotRetained(b *testing.B) {
	const terminal, active, batch = 5000, 200, 100
	st, err := store.Open(b.TempDir(), store.Options{NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	now := time.Unix(1_700_000_000, 0)
	p, err := serverless.NewPlatform(serverless.Options{
		Topology:      topology.Config{Servers: 32, GPUsPerServer: 8},
		Clock:         func() time.Time { return now },
		Store:         st,
		SnapshotEvery: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	submit := func(n int, iters float64) {
		reqs := make([]serverless.SubmitRequest, n)
		for i := range reqs {
			reqs[i] = serverless.SubmitRequest{Tenant: "acme", Model: "resnet50", GlobalBatch: 128, Iterations: iters, DeadlineSeconds: 1e6}
		}
		if _, err := p.SubmitBatch(reqs); err != nil {
			b.Fatal(err)
		}
	}
	for n := 0; n < terminal; n += batch {
		submit(batch, 40)
		for p.Cluster().Admitted > 0 {
			now = now.Add(100 * time.Second)
			p.Tick()
		}
	}
	submit(active, 1e6)
	if c := p.Cluster(); c.Completed != terminal || c.Admitted != active {
		b.Fatalf("set-up left %+v, want %d completed and %d active", c, terminal, active)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = now.Add(time.Millisecond)
		p.Tick()
		if n := st.RecordsSinceSnapshot(); n != 0 {
			b.Fatalf("tick %d left %d records unsnapshotted", i, n)
		}
	}
	b.StopTimer()
	if c := p.Cluster(); c.Completed != terminal || c.Admitted != active {
		b.Fatalf("the measured ticks changed the job set: %+v", c)
	}
}

// BenchmarkSubmitDurable measures what one acknowledged submission costs the
// durable control plane in steady state: a single-item SubmitBatch at a moved
// now, over an active set of about 200 jobs of live_uniform's one shape that
// arrive — and so finish — every 1.7 platform-seconds on a saturated 1 024-GPU
// shard, so most submissions' advances retire a job. Fsync is off (the store
// still counts the calls); records/op and syncs/op are what the journal was
// asked to do and must both read 1: a submission's record is its advance
// (DESIGN.md §11).
func BenchmarkSubmitDurable(b *testing.B) {
	const every, warm = 1700 * time.Millisecond, 800
	st, err := store.Open(b.TempDir(), store.Options{NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	now := time.Unix(1_700_000_000, 0)
	reg := obs.New(obs.Options{Clock: func() time.Time { return now }})
	p, err := serverless.NewPlatform(serverless.Options{
		Topology: topology.Config{Servers: 128, GPUsPerServer: 8},
		Clock:    func() time.Time { return now },
		Store:    st,
		Obs:      reg,
	})
	if err != nil {
		b.Fatal(err)
	}
	req := []serverless.SubmitRequest{{Tenant: "acme", Model: "resnet50", GlobalBatch: 128, Iterations: 50_000, DeadlineSeconds: 4_000}}
	submit := func() {
		now = now.Add(every)
		if sts, err := p.SubmitBatch(req); err != nil || sts[0].State == "dropped" {
			b.Fatalf("SubmitBatch = %+v, %v", sts, err)
		}
	}
	fsyncs := func() float64 {
		var text strings.Builder
		if err := reg.Metrics.WritePrometheus(&text); err != nil {
			b.Fatal(err)
		}
		_, rest, _ := strings.Cut(text.String(), "\nef_store_fsyncs_total ")
		line, _, _ := strings.Cut(rest, "\n")
		n, err := strconv.ParseFloat(line, 64)
		if err != nil {
			b.Fatalf("ef_store_fsyncs_total on /metrics: %v", err)
		}
		return n
	}
	for i := 0; i < warm; i++ {
		submit()
	}
	before := p.Cluster()
	if before.Completed == 0 || before.Admitted < 100 || before.Admitted > 400 {
		b.Fatalf("warm-up left %+v, want a steady state of about 200 active jobs", before)
	}
	records, syncs := st.LastLSN(), fsyncs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		submit()
	}
	b.StopTimer()
	b.ReportMetric(float64(st.LastLSN()-records)/float64(b.N), "records/op")
	b.ReportMetric((fsyncs()-syncs)/float64(b.N), "syncs/op")
	if after := p.Cluster(); b.N >= 100 && after.Completed-before.Completed < b.N*9/10 {
		b.Fatalf("%d submissions retired %d jobs: completions are no longer pending at most of them", b.N, after.Completed-before.Completed)
	}
}

// BenchmarkBuddyAllocate measures buddy allocation/release cycles.
func BenchmarkBuddyAllocate(b *testing.B) {
	c, err := topology.New(topology.Config{Servers: 16, GPUsPerServer: 8})
	if err != nil {
		b.Fatal(err)
	}
	sizes := []int{1, 2, 4, 8, 16}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := fmt.Sprintf("b%d", i)
		if _, err := c.Allocate(id, sizes[i%len(sizes)]); err != nil {
			// Cluster full: drain it and continue.
			b.StopTimer()
			for jid := range c.Placements() {
				if err := c.Release(jid); err != nil {
					b.Fatal(err)
				}
			}
			b.StartTimer()
			continue
		}
	}
}

// fragmentedCluster returns trace.PhillyScale's 2 048 GPUs (256 servers of
// 8) filled with jobs of 1 to 16 GPUs in random order and then with a random
// half of them released: half the cluster free, in blocks of at most a few
// servers. The same cluster every call.
func fragmentedCluster(tb testing.TB) *topology.Cluster {
	c, err := topology.New(topology.Config{Servers: 256, GPUsPerServer: 8})
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var ids []string
	for c.FreeGPUs() > 0 {
		id := fmt.Sprintf("f%04d", len(ids))
		for size := 1 << rng.Intn(5); ; size /= 2 {
			if _, err := c.Allocate(id, size); err == nil {
				break
			}
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		if rng.Intn(2) == 0 {
			if err := c.Release(id); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return c
}

// BenchmarkBuddyCompact measures defragmentation (§4.3): AllocateWithMigration
// of the largest power of two of GPUs that fragmentedCluster has free, which
// no free block holds, so the allocator repacks every job to make room.
func BenchmarkBuddyCompact(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := fragmentedCluster(b)
		need := topology.PrevPowerOfTwo(c.FreeGPUs())
		b.StartTimer()
		_, migs, err := c.AllocateWithMigration("big", need)
		if err != nil || len(migs) == 0 {
			b.Fatalf("allocating %d of %d free GPUs: %d migrations, err %v", need, c.FreeGPUs(), len(migs), err)
		}
	}
}

// BenchmarkRingAllReduce measures the executor's collective on 8 workers.
func BenchmarkRingAllReduce(b *testing.B) {
	const workers, size = 8, 4096
	bufs := make([][]float64, workers)
	for r := range bufs {
		bufs[r] = make([]float64, size)
		for i := range bufs[r] {
			bufs[r][i] = float64(r + i)
		}
	}
	b.ReportAllocs()
	b.SetBytes(int64(size * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := allreduce.Run(workers, func(g *allreduce.Group, rank int) error {
			return g.AllReduce(rank, bufs[rank])
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkThroughputEstimate measures the analytic performance model.
func BenchmarkThroughputEstimate(b *testing.B) {
	est := throughput.NewEstimator(model.DefaultA100())
	spec := model.MustByName("bert")
	p := throughput.BestPlacement(16, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := est.IterTime(spec, 128, p); err != nil {
			b.Fatal(err)
		}
	}
}
