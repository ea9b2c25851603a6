package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"github.com/elasticflow/elasticflow/internal/core"
	"github.com/elasticflow/elasticflow/internal/frontdoor"
	"github.com/elasticflow/elasticflow/internal/job"
	"github.com/elasticflow/elasticflow/internal/model"
	"github.com/elasticflow/elasticflow/internal/plan"
	"github.com/elasticflow/elasticflow/internal/serverless"
	"github.com/elasticflow/elasticflow/internal/store"
	"github.com/elasticflow/elasticflow/internal/throughput"
	"github.com/elasticflow/elasticflow/internal/topology"
)

// The direct-call phase of the traced run replays a workload's own jobs and
// requests into each layer's public functions, one span per call.

// directCalls is how many of the workload's inputs each direct experiment
// replays at most: enough for a steady median at the benchmark's run length,
// fewer on the one-second runs of the package's test.
func directCalls(seconds float64) int {
	if seconds < 4 {
		return 32
	}
	return 256
}

// virtualClock hands a platform a clock the harness steps: one tick per
// reading, so platform time — and with it every admission decision — is
// independent of the host and repeats for a seed.
type virtualClock struct {
	now  time.Time
	step time.Duration
}

func (c *virtualClock) read() time.Time {
	c.now = c.now.Add(c.step)
	return c.now
}

func newVirtualClock() *virtualClock {
	return &virtualClock{now: time.Unix(1_700_000_000, 0), step: time.Millisecond}
}

// directCore replays an admission loop (Admit, then the counter-offer search
// the live timers exclude) over the first jobs of the workload.
func directCore(p *metricSet, spans *spanLog, jobs []*job.Job, g, calls int) {
	ef := core.NewDefault()
	n := min(len(jobs), calls/2)
	var active []*job.Job
	var offers []float64
	for _, j := range jobs[:n] {
		c := *j
		offers = append(offers, us(spans.timed("core.earliest_deadline", c.ID, "direct.core", func() {
			ef.EarliestDeadline(c.SubmitTime, &c, active, g)
		})))
		if ef.Admit(c.SubmitTime, &c, active, g) {
			active = append(active, &c)
		}
	}
	p.set("core.earliest_deadline_us_mean", mean(offers))
}

// directPlan fills the workload's jobs one after another into one filler at
// the scheduler's own slot length, committing every satisfied plan.
func directPlan(p *metricSet, spans *spanLog, jobs []*job.Job, g, calls int) {
	slot := core.NewDefault().SlotSec()
	f := plan.NewFiller(g, slot, true)
	n := min(len(jobs), calls)
	var fills, slots []float64
	for _, j := range jobs[:n] {
		d := plan.Demand{
			Curve:        j.Curve,
			Remaining:    j.TotalIters,
			DeadlineSlot: int(math.Floor((j.Deadline - j.SubmitTime) / slot)),
			MinGPUs:      j.MinGPUs,
			MaxGPUs:      j.MaxGPUs,
		}
		var a plan.Allocation
		fills = append(fills, us(spans.timed("plan.fill", j.ID, "direct.plan", func() { a = f.Fill(d) })))
		slots = append(slots, float64(len(a.Levels)))
		if a.Satisfied {
			f.Commit(a)
		}
	}
	p.set("plan.fill_us_p50", median(fills))
	p.set("plan.fill_slots_mean", mean(slots))
}

// directTopology churns the buddy allocator with the workload's GPU sizes:
// allocate each job, releasing the oldest holders when the cluster is full.
func directTopology(p *metricSet, spans *spanLog, jobs []*job.Job, cfg topology.Config) error {
	c, err := topology.New(cfg)
	if err != nil {
		return err
	}
	var held []string
	var allocs []float64
	migrations := 0
	for _, j := range jobs {
		need := topology.NextPowerOfTwo(j.RequestedGPUs)
		for c.FreeGPUs() < need {
			if err := c.Release(held[0]); err != nil {
				return err
			}
			held = held[1:]
		}
		var migs []topology.Migration
		allocs = append(allocs, us(spans.timed("topology.alloc", j.ID, "direct.topology", func() {
			_, migs, err = c.AllocateWithMigration(j.ID, need)
		})))
		if err != nil {
			return err
		}
		migrations += len(migs)
		held = append(held, j.ID)
	}
	p.set("topology.alloc_us_p50", median(allocs))
	p.set("topology.migrations_per_alloc", ratio(float64(migrations), float64(len(allocs))))
	return nil
}

// directThroughput profiles every distinct (model, batch) of the workload on
// a cold profiler, then again warm — the call every submission makes.
func directThroughput(p *metricSet, spans *spanLog, jobs []*job.Job, maxWorkers int) error {
	type shape struct {
		spec  model.Spec
		batch int
	}
	seen := map[string]bool{}
	var shapes []shape
	for _, j := range jobs {
		key := fmt.Sprintf("%s/%d", j.Model.Name, j.GlobalBatch)
		if !seen[key] {
			seen[key] = true
			shapes = append(shapes, shape{j.Model, j.GlobalBatch})
		}
	}
	prof := throughput.NewProfiler(throughput.NewEstimator(model.DefaultA100()), 8, maxWorkers)
	var err error
	pass := func(name string) []float64 {
		return spans.timedEach(len(shapes), name, "direct.throughput", func(i int) {
			if _, _, perr := prof.Profile(shapes[i].spec, shapes[i].batch); perr != nil {
				err = perr
			}
		})
	}
	p.set("throughput.profile_us_cold", mean(pass("throughput.profile_cold")))
	p.set("throughput.profile_us_warm", mean(pass("throughput.profile_warm")))
	return err
}

// directStore appends the workload's own batch-record bodies to a fresh
// journal, durably and not.
func directStore(p *metricSet, spans *spanLog, dir string, reqs []serverless.SubmitRequest, calls int) error {
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	n := min(len(reqs), calls)
	appendAll := func(name string, durable bool) ([]float64, error) {
		var aerr error
		out := spans.timedEach(n, name, "direct.store", func(i int) {
			if _, e := st.Append("batch", float64(i), reqs[i:i+1], durable); e != nil {
				aerr = e
			}
		})
		return out, aerr
	}
	durable, err := appendAll("store.append_durable", true)
	if err == nil {
		var nosync []float64
		nosync, err = appendAll("store.append_nosync", false)
		p.set("store.append_durable_us_p50", median(durable))
		p.set("store.append_nosync_us_p50", median(nosync))
	}
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	return err
}

// directServerless drives one shard-sized platform directly: durable
// single-item batches, durable batches of 64, storeless submits, then ticks,
// reads and a list over the state those submissions left.
func directServerless(p *metricSet, spans *spanLog, dir string, reqs []serverless.SubmitRequest, calls int) error {
	clock := newVirtualClock()
	newPlatform := func(sub string) (*serverless.Platform, error) {
		opts := serverless.Options{Topology: shardTopology, Clock: clock.read, TimeScale: timescale}
		if sub != "" {
			st, err := store.Open(filepath.Join(dir, sub), store.Options{})
			if err != nil {
				return nil, err
			}
			opts.Store = st
			opts.SnapshotEvery = snapshotEvery
		}
		return serverless.NewPlatform(opts)
	}
	n := min(len(reqs), calls)
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}

	durable, err := newPlatform("b1")
	if err != nil {
		return err
	}
	var ids []string
	single := spans.timedEach(n, "serverless.submit_batch", "direct.serverless", func(i int) {
		sts, err := durable.SubmitBatch(reqs[i : i+1])
		note(err)
		for _, st := range sts {
			ids = append(ids, st.ID)
		}
	})
	p.set("serverless.submit_batch_us_p50", median(single))
	clock.step = time.Second // one efserver scheduling epoch per reading from here on
	ticks := spans.timedEach(64, "serverless.tick", "direct.serverless", func(int) { durable.Tick() })
	p.set("serverless.tick_us_p50", median(ticks))
	gets := spans.timedEach(len(ids), "serverless.get", "direct.serverless", func(i int) {
		_, err := durable.Get(ids[i])
		note(err)
	})
	p.set("serverless.get_us_p50", median(gets))
	note(durable.Shutdown())

	batched, err := newPlatform("b64")
	if err != nil {
		return err
	}
	perBatch := spans.timedEach(min(len(reqs), max(calls, 64))/64, "serverless.submit_batch_64", "direct.serverless", func(i int) {
		_, err := batched.SubmitBatch(reqs[i*64 : (i+1)*64])
		note(err)
	})
	p.set("serverless.submit_batch_us_per_item_b64", median(perBatch)/64)
	note(batched.Shutdown())

	storeless, err := newPlatform("")
	if err != nil {
		return err
	}
	plain := spans.timedEach(n, "serverless.submit_storeless", "direct.serverless", func(i int) {
		_, err := storeless.SubmitBatch(reqs[i : i+1])
		note(err)
	})
	p.set("serverless.submit_storeless_us_p50", median(plain))
	note(storeless.Shutdown())
	return firstErr
}

// directFrontdoor is the PR-10 in-process microbench on honest inputs: the
// workload's requests, enqueued in clumps of 64 without waiting, into
// durable shards.
func directFrontdoor(p *metricSet, spans *spanLog, dir string, reqs []serverless.SubmitRequest, calls int) error {
	fd, err := frontdoor.New(frontdoor.Options{
		Shards:        shards,
		ShardTopology: shardTopology,
		MaxBatch:      64,
		TimeScale:     timescale,
		StateDir:      dir,
		SnapshotEvery: snapshotEvery,
	})
	if err != nil {
		return err
	}
	clumps := min(len(reqs), max(2*calls, 64)) / 64
	var verdictMs []float64
	start := time.Now()
	spans.timedEach(clumps, "frontdoor.burst", "direct.frontdoor", func(i int) {
		var tickets []*frontdoor.Ticket
		for _, req := range reqs[i*64 : (i+1)*64] {
			t, eerr := fd.Enqueue(req)
			if eerr != nil {
				err = eerr
				continue
			}
			tickets = append(tickets, t)
		}
		for _, t := range tickets {
			v := <-t.C
			if v.Err != nil {
				err = v.Err
			}
			verdictMs = append(verdictMs, v.LatencySec*1000)
		}
	})
	wall := time.Since(start)
	stats := fd.Stats()
	p.set("frontdoor.burst_submissions_per_s", float64(clumps*64)/wall.Seconds())
	p.set("frontdoor.burst_batch_mean", ratio(float64(len(verdictMs)), float64(stats.Batches)))
	p.set("frontdoor.burst_verdict_p99_ms", quantile(verdictMs, 0.99))
	if serr := fd.Shutdown(); err == nil {
		err = serr
	}
	return err
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}
