package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/elasticflow/elasticflow/internal/job"
	"github.com/elasticflow/elasticflow/internal/model"
	"github.com/elasticflow/elasticflow/internal/serverless"
	"github.com/elasticflow/elasticflow/internal/throughput"
	"github.com/elasticflow/elasticflow/internal/topology"
	"github.com/elasticflow/elasticflow/internal/trace"
)

// The live server under test: efserver's front-door path over two durable
// shards, 2,048 GPUs in all — the trace.PhillyScale cluster.
const (
	shards        = 2
	timescale     = 900
	snapshotEvery = 256
	// tenantCount tenants take submissions round-robin; only live_mixed
	// constrains two of them.
	tenantCount  = 8
	mixedTenants = "t0:rate=5,burst=10;t1:gpus=64"
)

var shardTopology = topology.Config{Servers: 128, GPUsPerServer: 8}

// liveWorkload is one traffic mix.
type liveWorkload struct {
	tenants string // efserver -tenants
	// mixed adds status reads, cancels, list and metrics reads beside the
	// submissions.
	mixed bool
	// ratePerSec is the offered Phase-A rate, used only to size the input.
	ratePerSec float64
	trace      func(seed int64, jobs int) trace.Trace
}

var liveWorkloads = map[string]liveWorkload{
	"live_philly":  {ratePerSec: 60, trace: phillyTrace},
	"live_uniform": {ratePerSec: 200, trace: uniformTrace},
	"live_mixed":   {ratePerSec: 60, trace: phillyTrace, tenants: mixedTenants, mixed: true},
}

// phillyTrace is trace.PhillyScale's shape without its daily burst: a run
// covers a few simulated hours, which would sit wholly inside the burst
// quarter of the first day. Load 1.15 over 2,048 GPUs arrives at about 60
// submissions per wall second at timescale 900.
func phillyTrace(seed int64, jobs int) trace.Trace {
	return trace.Generate(trace.Config{
		Name:            "live-philly",
		Jobs:            jobs,
		ClusterGPUs:     2048,
		Load:            1.15,
		MeanDurationSec: 2700,
		DurationSigma:   1.5,
		Users:           500,
		Seed:            seed,
	})
}

// uniformTrace is the PR-10 frontdoor experiment's single shape — resnet50,
// batch 128, 50,000 iterations, a 4,000 s deadline — as Poisson arrivals at
// 200 per wall second. Written as a trace item, that is a job that ran 210 s
// on 32 GPUs (where an idle shard places it) with a deadline 19 times that.
func uniformTrace(seed int64, jobs int) trace.Trace {
	const gpus, iterations, deadlineSec, perWallSec = 32, 50_000, 4_000, 200
	spec := model.MustByName("resnet50")
	prof, _, err := newProfiler().Profile(spec, 128)
	if err != nil {
		panic(fmt.Sprintf("benchmark: resnet50/128 does not profile: %v", err))
	}
	duration := iterations / prof.Curve.At(gpus)
	rng := rand.New(rand.NewSource(seed))
	tr := trace.Trace{Name: "live-uniform", GPUs: 2048}
	now := 0.0
	for i := 0; i < jobs; i++ {
		now += rng.ExpFloat64() * timescale / perWallSec
		tr.Items = append(tr.Items, trace.Item{
			ID:          fmt.Sprintf("live-uniform-j%04d", i),
			Model:       spec.Name,
			GlobalBatch: 128,
			SubmitSec:   now,
			DurationSec: duration,
			GPUs:        gpus,
			Lambda:      deadlineSec / duration,
		})
	}
	return tr
}

// newProfiler matches the profiler a shard platform builds for itself.
func newProfiler() *throughput.Profiler {
	return throughput.NewProfiler(throughput.NewEstimator(model.DefaultA100()), shardTopology.GPUsPerServer,
		shardTopology.Servers*shardTopology.GPUsPerServer)
}

// inputs is everything a live run feeds the server, made from the seed alone.
type inputs struct {
	reqs   []serverless.SubmitRequest
	bodies [][]byte
	// due is when each submission is to be sent, from the start of Phase A.
	due []time.Duration
	// jobs are the same submissions as the scheduler sees them, for the
	// traced run's direct calls.
	jobs []*job.Job
}

// buildInputs generates and profiles a workload's submissions. The trace
// records what a job did (GPUs, duration); the serverless request says what
// the developer wants (iterations, deadline), in whole iterations and seconds.
func buildInputs(w liveWorkload, seed int64, jobs int) (*inputs, error) {
	tr := w.trace(seed, jobs)
	est := throughput.NewEstimator(model.DefaultA100())
	js, err := tr.Jobs(newProfiler(), est)
	if err != nil {
		return nil, err
	}
	in := &inputs{jobs: js}
	for i, j := range js {
		it := tr.Items[i]
		if it.ID != j.ID {
			return nil, fmt.Errorf("trace %s is not sorted by submission time at item %d", tr.Name, i)
		}
		req := serverless.SubmitRequest{
			User:            it.User,
			Tenant:          fmt.Sprintf("t%d", i%tenantCount),
			Model:           it.Model,
			GlobalBatch:     it.GlobalBatch,
			Iterations:      math.Round(j.TotalIters),
			DeadlineSeconds: math.Max(1, math.Round(j.Deadline-j.SubmitTime)),
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		in.reqs = append(in.reqs, req)
		in.bodies = append(in.bodies, body)
		in.due = append(in.due, time.Duration(it.SubmitSec/timescale*float64(time.Second)))
	}
	return in, nil
}

// phaseA returns how many submissions are due before d.
func (in *inputs) phaseA(d time.Duration) int {
	n := 0
	for n < len(in.due) && in.due[n] < d {
		n++
	}
	return n
}
