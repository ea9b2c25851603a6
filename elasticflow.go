package elasticflow

import (
	"fmt"
	"net/http"

	"github.com/elasticflow/elasticflow/internal/baselines"
	"github.com/elasticflow/elasticflow/internal/core"
	"github.com/elasticflow/elasticflow/internal/frontdoor"
	"github.com/elasticflow/elasticflow/internal/job"
	"github.com/elasticflow/elasticflow/internal/model"
	"github.com/elasticflow/elasticflow/internal/sched"
	"github.com/elasticflow/elasticflow/internal/serverless"
	"github.com/elasticflow/elasticflow/internal/sim"
	"github.com/elasticflow/elasticflow/internal/throughput"
	"github.com/elasticflow/elasticflow/internal/topology"
	"github.com/elasticflow/elasticflow/internal/trace"
)

// This file is the public facade of the library: the stable entry points a
// downstream user imports, re-exported from the internal packages that
// implement them. The README's quickstart and the examples use exactly this
// surface.

// Core scheduling types.
type (
	// Job is a training job as the scheduler sees it.
	Job = job.Job
	// Scheduler is the policy contract shared by ElasticFlow and every
	// baseline.
	Scheduler = sched.Scheduler
	// Decision is the outcome of one scheduling event.
	Decision = sched.Decision
	// SchedulerOptions configures the ElasticFlow scheduler (§4).
	SchedulerOptions = core.Options
	// Curve is a job's throughput scaling curve.
	Curve = throughput.Curve
)

// Job classes (§4.4).
const (
	SLO          = job.SLO
	BestEffort   = job.BestEffort
	SoftDeadline = job.SoftDeadline
)

// NewScheduler creates the ElasticFlow scheduler: admission control on
// Minimum Satisfactory Share (Algorithm 1) plus greedy elastic resource
// allocation by diminishing returns (Algorithm 2).
func NewScheduler(opts SchedulerOptions) *core.ElasticFlow { return core.New(opts) }

// NewDefaultScheduler is NewScheduler with the paper's defaults (60-second
// planning slots, power-of-two buddy-compatible allocations).
func NewDefaultScheduler() *core.ElasticFlow { return core.NewDefault() }

// SchedulerByName constructs any scheduler in the repository by its
// evaluation name: "elasticflow" (or "ef"), the §6.1 baselines "edf",
// "gandiva", "tiresias", "themis", "chronus", "pollux", and the §6.4
// ablation variants "edf+ac" and "edf+es".
func SchedulerByName(name string) (Scheduler, error) {
	switch name {
	case "elasticflow", "ef":
		return core.NewDefault(), nil
	case "edf":
		return baselines.EDF{}, nil
	case "gandiva":
		return baselines.Gandiva{}, nil
	case "tiresias":
		return baselines.Tiresias{}, nil
	case "themis":
		return baselines.Themis{}, nil
	case "chronus":
		return baselines.Chronus{}, nil
	case "pollux":
		return baselines.Pollux{}, nil
	case "edf+ac":
		return baselines.EDFAdmission{}, nil
	case "edf+es":
		return baselines.EDFElastic{}, nil
	default:
		return nil, fmt.Errorf("elasticflow: unknown scheduler %q", name)
	}
}

// SchedulerNames lists the names SchedulerByName accepts, in the paper's
// presentation order.
func SchedulerNames() []string {
	return []string{"elasticflow", "edf", "gandiva", "tiresias", "themis", "chronus", "pollux", "edf+ac", "edf+es"}
}

// Serverless platform (§3.1).
type (
	// Platform is the running serverless service.
	Platform = serverless.Platform
	// PlatformOptions configures a platform.
	PlatformOptions = serverless.Options
	// SubmitRequest is the serverless training function a developer
	// submits: model, hyperparameters, termination condition, deadline —
	// never a GPU count.
	SubmitRequest = serverless.SubmitRequest
	// JobStatus is the externally visible job state.
	JobStatus = serverless.JobStatus
	// FrontDoor is the admission tier in front of one or more platform
	// shards: per-tenant rate limits and GPU quotas (§4.4 "malicious
	// users"), routing and batched admission.
	FrontDoor = frontdoor.FrontDoor
	// FrontDoorOptions configures a front door and its shards.
	FrontDoorOptions = frontdoor.Options
	// Client is the Go client for the front door's HTTP job surface.
	Client = frontdoor.Client
)

// NewPlatform creates a serverless platform over a virtual cluster.
func NewPlatform(opts PlatformOptions) (*Platform, error) { return serverless.NewPlatform(opts) }

// NewFrontDoor creates the front door and its shard platforms.
func NewFrontDoor(opts FrontDoorOptions) (*FrontDoor, error) { return frontdoor.New(opts) }

// NewHandler returns the front door's HTTP/JSON surface — the one efserver
// serves.
func NewHandler(fd *FrontDoor) http.Handler { return frontdoor.Handler(fd) }

// NewClient creates a client for a front door's HTTP job surface.
func NewClient(baseURL string) *Client { return frontdoor.NewClient(baseURL) }

// Cluster topology (§4.3).
type (
	// Topology describes the physical cluster layout.
	Topology = topology.Config
	// Cluster tracks buddy allocation over a topology.
	Cluster = topology.Cluster
)

// NewCluster creates a buddy-allocated cluster.
func NewCluster(cfg Topology) (*Cluster, error) { return topology.New(cfg) }

// Performance modeling (§5, Fig. 2).
type (
	// Hardware holds the per-GPU and interconnect constants.
	Hardware = model.Hardware
	// ModelSpec describes a Table 1 DNN model.
	ModelSpec = model.Spec
	// Estimator computes iteration times from the analytic model.
	Estimator = throughput.Estimator
	// Profiler measures scaling curves by pre-running jobs (§5).
	Profiler = throughput.Profiler
)

// DefaultHardware returns the calibrated A100-testbed constants.
func DefaultHardware() Hardware { return model.DefaultA100() }

// ModelCatalog returns the Table 1 model pool.
func ModelCatalog() []ModelSpec { return model.Catalog() }

// NewEstimator creates a throughput estimator over the given hardware.
func NewEstimator(hw Hardware) Estimator { return throughput.NewEstimator(hw) }

// NewCurveFromPoints builds a scaling curve from worker-count → throughput
// points, e.g. measured externally rather than by the profiler.
func NewCurveFromPoints(points map[int]float64) (Curve, error) { return throughput.NewCurve(points) }

// NewProfiler creates a curve profiler for clusters with perServer GPUs per
// server and jobs of at most maxWorkers workers.
func NewProfiler(est Estimator, perServer, maxWorkers int) *Profiler {
	return throughput.NewProfiler(est, perServer, maxWorkers)
}

// Workloads (§6.1).
type (
	// Trace is a replayable workload.
	Trace = trace.Trace
	// TraceConfig controls synthetic workload generation.
	TraceConfig = trace.Config
)

// GenerateTrace synthesizes a workload with the §6.1 recipe.
func GenerateTrace(cfg TraceConfig) Trace { return trace.Generate(cfg) }

// LoadTrace reads a trace saved by Trace.Save.
func LoadTrace(path string) (Trace, error) { return trace.Load(path) }

// Simulation (§6.1).
type (
	// SimConfig configures a simulation run.
	SimConfig = sim.Config
	// SimResult aggregates a run's metrics.
	SimResult = sim.Result
	// NodeFailure injects a server outage (§4.4).
	NodeFailure = sim.Failure
)

// Simulate replays jobs under the configured scheduler and returns the
// collected metrics.
func Simulate(cfg SimConfig, jobs []*Job, traceName string) (SimResult, error) {
	return sim.Run(cfg, jobs, traceName)
}
