// Package trace generates and materializes the workloads of §6.1. The paper
// replays two-month production traces from ten clusters plus the public
// Microsoft Philly trace; those traces are not redistributable, so this
// package synthesizes traces with the published shape: heavy-tailed
// power-of-two GPU requests dominated by small jobs, log-normal durations,
// Poisson arrivals, models drawn from the Table 1 pool, and deadlines set to
// λ·duration after submission with λ ~ U[0.5, 1.5].
package trace

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"

	"github.com/elasticflow/elasticflow/internal/job"
	"github.com/elasticflow/elasticflow/internal/model"
	"github.com/elasticflow/elasticflow/internal/throughput"
	"github.com/elasticflow/elasticflow/internal/topology"
)

// Item is one job record in a trace, mirroring the fields of the paper's
// production traces (submission time, GPU count, duration) plus the
// synthesized model assignment and deadline tightness.
type Item struct {
	ID          string  `json:"id"`
	User        string  `json:"user,omitempty"`
	Model       string  `json:"model"`
	GlobalBatch int     `json:"global_batch"`
	SubmitSec   float64 `json:"submit_sec"`
	DurationSec float64 `json:"duration_sec"`
	GPUs        int     `json:"gpus"`
	Lambda      float64 `json:"lambda"`
	BestEffort  bool    `json:"best_effort,omitempty"`
}

// Trace is a named workload to replay on a cluster.
type Trace struct {
	Name  string `json:"name"`
	GPUs  int    `json:"cluster_gpus"`
	Items []Item `json:"items"`
}

// Config controls synthetic trace generation.
type Config struct {
	// Name labels the trace.
	Name string
	// Jobs is the number of jobs to generate.
	Jobs int
	// ClusterGPUs is the capacity the trace targets.
	ClusterGPUs int
	// Load is the offered load: the ratio of total requested GPU·seconds
	// to cluster GPU·seconds over the arrival span. 1.0 saturates the
	// cluster on average.
	Load float64
	// MeanDurationSec is the median job duration (log-normal). Default
	// 1800 (30 minutes, Philly-like).
	MeanDurationSec float64
	// DurationSigma is the log-normal shape parameter. Default 1.2.
	DurationSigma float64
	// MaxJobGPUs caps the per-job GPU request. Default 32.
	MaxJobGPUs int
	// LambdaLo and LambdaHi bound the deadline-tightness factor
	// (default [0.5, 1.5], §6.1).
	LambdaLo, LambdaHi float64
	// BestEffortFraction is the share of jobs submitted without deadlines
	// (§6.5). Default 0.
	BestEffortFraction float64
	// Users is the number of distinct submitting users jobs are spread
	// across (round-robin-free random assignment). 0 leaves User empty.
	Users int
	// BurstEverySec and BurstFactor add submission bursts on top of the
	// Poisson arrivals (the paper's Fig. 7 shows a drop spike at a burst
	// hour): every BurstEverySec seconds, the arrival rate multiplies by
	// BurstFactor for a quarter of the period. Zero disables bursts.
	BurstEverySec float64
	BurstFactor   float64
	// Seed drives all randomness; equal seeds give equal traces.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.MeanDurationSec <= 0 {
		c.MeanDurationSec = 1800
	}
	if c.DurationSigma <= 0 {
		c.DurationSigma = 1.2
	}
	if c.MaxJobGPUs <= 0 {
		c.MaxJobGPUs = 32
	}
	if c.LambdaLo == 0 && c.LambdaHi == 0 {
		c.LambdaLo, c.LambdaHi = 0.5, 1.5
	}
	if c.Load <= 0 {
		c.Load = 1.0
	}
	return c
}

// gpuDist is the Philly-like distribution of requested worker counts:
// predominantly single-GPU jobs with a heavy power-of-two tail (Jeon et al.,
// ATC'19).
var gpuDist = []struct {
	gpus   int
	weight float64
}{
	{1, 0.48},
	{2, 0.16},
	{4, 0.15},
	{8, 0.12},
	{16, 0.06},
	{32, 0.03},
}

func sampleGPUs(rng *rand.Rand, maxGPUs int) int {
	total := 0.0
	for _, d := range gpuDist {
		if d.gpus <= maxGPUs {
			total += d.weight
		}
	}
	x := rng.Float64() * total
	for _, d := range gpuDist {
		if d.gpus > maxGPUs {
			continue
		}
		if x < d.weight {
			return d.gpus
		}
		x -= d.weight
	}
	return 1
}

// pickModel draws a (model, batch) pair from the Table 1 pool, constrained
// so the requested GPU count can hold the global batch in memory.
func pickModel(rng *rand.Rand, gpus int) (model.Spec, int) {
	specs := model.Catalog()
	for tries := 0; tries < 64; tries++ {
		spec := specs[rng.Intn(len(specs))]
		batch := spec.BatchSizes[rng.Intn(len(spec.BatchSizes))]
		if spec.MinWorkers(batch) <= gpus && gpus <= batch {
			return spec, batch
		}
	}
	// Fallback: resnet50 fits any power-of-two count up to its batch.
	spec := model.MustByName("resnet50")
	return spec, 256
}

// Generate synthesizes a trace. Arrivals form a Poisson process whose rate
// is derived from the target Load; each job draws GPUs, duration, model and
// deadline tightness independently.
func Generate(cfg Config) Trace {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	tr := Trace{Name: cfg.Name, GPUs: cfg.ClusterGPUs}

	// Expected GPU·seconds of one job.
	expGPUs := 0.0
	wsum := 0.0
	for _, d := range gpuDist {
		if d.gpus <= cfg.MaxJobGPUs {
			expGPUs += float64(d.gpus) * d.weight
			wsum += d.weight
		}
	}
	expGPUs /= wsum
	expDur := cfg.MeanDurationSec * math.Exp(cfg.DurationSigma*cfg.DurationSigma/2)
	// Arrival rate so that offered load matches: load = rate·E[gpu·dur]/G.
	rate := cfg.Load * float64(cfg.ClusterGPUs) / (expGPUs * expDur)

	// With bursts, a quarter of each window runs at BurstFactor× rate;
	// normalize the base rate so the configured offered load still holds
	// on average.
	if cfg.BurstEverySec > 0 && cfg.BurstFactor > 1 {
		rate /= 0.25*cfg.BurstFactor + 0.75
	}
	// nextArrival draws the next submission time. With bursts configured,
	// arrivals form an inhomogeneous Poisson process via thinning: the
	// instantaneous rate is BurstFactor×rate inside the first quarter of
	// every BurstEverySec window and rate elsewhere.
	now := 0.0
	nextArrival := func() float64 {
		if cfg.BurstEverySec <= 0 || cfg.BurstFactor <= 1 {
			now += rng.ExpFloat64() / rate
			return now
		}
		for {
			now += rng.ExpFloat64() / (rate * cfg.BurstFactor)
			inBurst := math.Mod(now, cfg.BurstEverySec) < cfg.BurstEverySec/4
			if inBurst || rng.Float64() < 1/cfg.BurstFactor {
				return now
			}
		}
	}
	for i := 0; i < cfg.Jobs; i++ {
		nextArrival()
		gpus := sampleGPUs(rng, cfg.MaxJobGPUs)
		spec, batch := pickModel(rng, gpus)
		dur := cfg.MeanDurationSec * math.Exp(cfg.DurationSigma*rng.NormFloat64())
		if dur < 120 {
			dur = 120
		}
		if dur > 48*3600 {
			dur = 48 * 3600
		}
		item := Item{
			ID:          fmt.Sprintf("%s-j%04d", cfg.Name, i),
			User:        userName(rng, cfg.Users),
			Model:       spec.Name,
			GlobalBatch: batch,
			SubmitSec:   now,
			DurationSec: dur,
			GPUs:        gpus,
			Lambda:      cfg.LambdaLo + rng.Float64()*(cfg.LambdaHi-cfg.LambdaLo),
		}
		if rng.Float64() < cfg.BestEffortFraction {
			item.BestEffort = true
		}
		tr.Items = append(tr.Items, item)
	}
	return tr
}

// userName draws a user label from a pool of n users.
func userName(rng *rand.Rand, n int) string {
	if n <= 0 {
		return ""
	}
	return fmt.Sprintf("user%02d", rng.Intn(n))
}

// Span returns the time between the first submission and the last.
func (t Trace) Span() float64 {
	if len(t.Items) == 0 {
		return 0
	}
	return t.Items[len(t.Items)-1].SubmitSec - t.Items[0].SubmitSec
}

// Jobs materializes the trace into schedulable jobs: each item's scaling
// curve comes from the profiler, its iteration budget from the traced
// duration times the measured throughput at the traced GPU count (§6.1), and
// its deadline from λ·duration after submission.
func (t Trace) Jobs(prof *throughput.Profiler, est throughput.Estimator) ([]*job.Job, error) {
	jobs := make([]*job.Job, 0, len(t.Items))
	for _, it := range t.Items {
		spec, err := model.ByName(it.Model)
		if err != nil {
			return nil, fmt.Errorf("trace %s item %s: %w", t.Name, it.ID, err)
		}
		p, _, err := prof.Profile(spec, it.GlobalBatch)
		if err != nil {
			return nil, fmt.Errorf("trace %s item %s: %w", t.Name, it.ID, err)
		}
		gpus := it.GPUs
		if gpus < p.MinGPUs {
			gpus = p.MinGPUs
		}
		if gpus > p.MaxGPUs {
			gpus = p.MaxGPUs
		}
		iters := p.Curve.At(gpus) * it.DurationSec
		j := &job.Job{
			ID:                 it.ID,
			User:               it.User,
			Model:              spec,
			GlobalBatch:        it.GlobalBatch,
			TotalIters:         iters,
			SubmitTime:         it.SubmitSec,
			Deadline:           it.SubmitSec + it.Lambda*it.DurationSec,
			Class:              job.SLO,
			Curve:              p.Curve,
			MinGPUs:            p.MinGPUs,
			MaxGPUs:            p.MaxGPUs,
			RequestedGPUs:      gpus,
			RescaleOverheadSec: est.RescaleOverhead(spec),
			CheckpointBytes:    spec.GradientBytes(),
			MigrateOverheadSec: est.CostModel().MigrateCost(spec.GradientBytes(), topology.LevelCluster),
		}
		if it.BestEffort {
			j.Class = job.BestEffort
			j.Deadline = math.Inf(1)
		}
		if err := j.Validate(); err != nil {
			return nil, fmt.Errorf("trace %s: %w", t.Name, err)
		}
		jobs = append(jobs, j)
	}
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].SubmitTime < jobs[k].SubmitTime })
	return jobs, nil
}

// Save writes the trace as JSON.
func (t Trace) Save(path string) error {
	data, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Load reads a trace written by Save.
func Load(path string) (Trace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Trace{}, err
	}
	var t Trace
	if err := json.Unmarshal(data, &t); err != nil {
		return Trace{}, fmt.Errorf("trace: parsing %s: %w", path, err)
	}
	return t, nil
}

// ProductionTraces returns the ten synthetic cluster traces standing in for
// the paper's production traces (§6.1: cluster sizes from 164 to 2,783 GPUs;
// we scale to powers of two between 64 and 512 to respect buddy topology),
// each with a distinct seed and load.
func ProductionTraces(jobsPerTrace int) []Trace {
	cfgs := []struct {
		gpus int
		load float64
	}{
		{128, 1.1}, {128, 1.4}, {256, 1.0}, {256, 1.3}, {64, 1.2},
		{64, 1.5}, {512, 1.1}, {512, 0.9}, {128, 0.7}, {256, 0.6},
	}
	traces := make([]Trace, 0, len(cfgs))
	for i, c := range cfgs {
		traces = append(traces, Generate(Config{
			Name:        fmt.Sprintf("cluster%02d", i+1),
			Jobs:        jobsPerTrace,
			ClusterGPUs: c.gpus,
			Load:        c.load,
			Seed:        int64(1000 + i),
		}))
	}
	return traces
}

// PhillyTrace returns a synthetic stand-in for the public Microsoft Philly
// trace: longer durations and a larger small-job share than the production
// traces.
func PhillyTrace(jobs int) Trace {
	return Generate(Config{
		Name:            "philly",
		Jobs:            jobs,
		ClusterGPUs:     256,
		Load:            1.2,
		MeanDurationSec: 2700,
		DurationSigma:   1.5,
		Seed:            4242,
	})
}

// PhillyScale synthesizes the million-job-class trace the parallel simulator
// is benchmarked against (the `scale` experiment and the `sim_philly` benchmark): the
// Philly duration/size shape replayed over a 2,048-GPU cluster with a large
// user population and daily submission bursts. At the nominal 1e6 jobs the
// arrival span is ~100 simulated days, so callers must size MaxSimSec
// accordingly (the scale experiment does). Equal (jobs, seed) pairs produce
// byte-identical traces; smaller job counts are prefixes of the same
// arrival process, which is what the CI smoke runs.
func PhillyScale(jobs int, seed int64) Trace {
	return Generate(Config{
		Name:            "philly-scale",
		Jobs:            jobs,
		ClusterGPUs:     2048,
		Load:            1.15,
		MeanDurationSec: 2700,
		DurationSigma:   1.5,
		Users:           500,
		BurstEverySec:   86400,
		BurstFactor:     3,
		Seed:            seed,
	})
}
