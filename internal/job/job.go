// Package job defines the unit of work ElasticFlow schedules: a serverless
// training function (§3.1). A job carries the DNN model, hyperparameters
// (global batch size), a termination condition expressed as a maximum number
// of iterations, and a deadline — but, by design, no GPU count: worker
// counts are the platform's concern.
package job

import (
	"fmt"
	"math"

	"github.com/elasticflow/elasticflow/internal/model"
	"github.com/elasticflow/elasticflow/internal/throughput"
	"github.com/elasticflow/elasticflow/internal/topology"
	"github.com/elasticflow/elasticflow/internal/transfer"
)

// Class distinguishes deadline semantics (§4.4).
type Class int

// Job classes.
const (
	// SLO jobs have hard deadlines: admitted only if the deadline can be
	// guaranteed, dropped otherwise.
	SLO Class = iota
	// BestEffort jobs have no deadline; they receive leftover capacity
	// and should finish as early as possible.
	BestEffort
	// SoftDeadline jobs have a deadline worth meeting but remain useful
	// when it is missed; they are scheduled like best-effort jobs but
	// keep their deadline for accounting.
	SoftDeadline
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case SLO:
		return "slo"
	case BestEffort:
		return "best-effort"
	case SoftDeadline:
		return "soft-deadline"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// State is a job's position in its lifecycle.
type State int

// Job lifecycle states.
const (
	// Pending: submitted, admission not yet decided.
	Pending State = iota
	// Admitted: accepted; the platform has guaranteed its deadline
	// (SLO jobs) or queued it (best-effort).
	Admitted
	// Running: currently holds GPUs.
	Running
	// Completed: reached its termination condition.
	Completed
	// Dropped: rejected by admission control (§4.1).
	Dropped
	// Cancelled: withdrawn by its submitter after admission.
	Cancelled
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Pending:
		return "pending"
	case Admitted:
		return "admitted"
	case Running:
		return "running"
	case Completed:
		return "completed"
	case Dropped:
		return "dropped"
	case Cancelled:
		return "cancelled"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Job is one training job. The static fields describe the submitted
// function; the remaining fields track scheduling state as simulated or real
// time advances. Times are seconds on the platform clock.
type Job struct {
	// ID uniquely identifies the job.
	ID string
	// User identifies the submitting DL developer; operator policies
	// (quotas, pricing, §4.4) key on it. May be empty.
	User string
	// Tenant is the namespace the job was submitted under; the front door
	// keys quotas, rate limits and shard routing on it. May be empty.
	Tenant string
	// Model is the DNN to train.
	Model model.Spec
	// GlobalBatch is the user-specified global batch size; the platform
	// derives each worker's local batch from it (§3.1).
	GlobalBatch int
	// TotalIters is the termination condition M_i: the maximum number of
	// iterations to run (§3.1).
	TotalIters float64
	// SubmitTime is when the job arrived.
	SubmitTime float64
	// Deadline is the absolute time D_i by which the job must finish.
	// +Inf for best-effort jobs.
	Deadline float64
	// Class is the deadline semantics.
	Class Class
	// Curve is the job's scaling curve under best placement, produced by
	// the profiler.
	Curve throughput.Curve
	// MinGPUs and MaxGPUs bound feasible worker counts (memory floor and
	// scaling ceiling, §6.6).
	MinGPUs int
	MaxGPUs int
	// RequestedGPUs is the worker count from the original server-centric
	// trace; only non-elastic baselines use it.
	RequestedGPUs int
	// RescaleOverheadSec is the wall time one in-place scaling event
	// costs this job (checkpoint + restore, §6.6). The scheduler uses it
	// as a planning safety margin; the simulator charges it on every
	// allocation change.
	RescaleOverheadSec float64
	// CheckpointBytes is the size of the job's serialized model state —
	// what actually crosses a link when the job migrates. Zero means
	// unknown, and migration prices like an in-place rescale.
	CheckpointBytes int64
	// MigrateOverheadSec is the conservative worst-case cost of one
	// placement-changing move: RescaleOverheadSec plus CheckpointBytes
	// over the slowest (cross-rack) link, fixed at submission so
	// planning margins are deterministic. Zero means unpriced, and
	// planning falls back to RescaleOverheadSec.
	MigrateOverheadSec float64

	// State is the lifecycle position.
	State State
	// DoneIters is the accumulated training progress.
	DoneIters float64
	// GPUs is the currently assigned worker count (0 when not running).
	GPUs int
	// FrozenUntil is the time before which the job makes no progress
	// because a scaling/migration is in flight (§6.6).
	FrozenUntil float64
	// Rescales counts the scaling/migration events actually charged to
	// the job so far — including failure-driven restarts. The scheduler
	// compares it against the SafetyRescales budget when replanning (the
	// remaining-margin rule; see core.ElasticFlow).
	Rescales int
	// CompletionTime records when the job finished (valid once Completed).
	CompletionTime float64
}

// Validate checks the static fields for consistency.
func (j *Job) Validate() error {
	switch {
	case j.ID == "":
		return fmt.Errorf("job: empty ID")
	case j.GlobalBatch <= 0:
		return fmt.Errorf("job %s: global batch %d must be positive", j.ID, j.GlobalBatch)
	case j.TotalIters <= 0:
		return fmt.Errorf("job %s: total iterations %g must be positive", j.ID, j.TotalIters)
	case j.Class != BestEffort && math.IsInf(j.Deadline, 1):
		return fmt.Errorf("job %s: %v job requires a finite deadline", j.ID, j.Class)
	case j.Deadline < j.SubmitTime:
		return fmt.Errorf("job %s: deadline %.0f precedes submission %.0f", j.ID, j.Deadline, j.SubmitTime)
	case j.Curve.MinWorkers() == 0:
		return fmt.Errorf("job %s: missing scaling curve", j.ID)
	}
	return nil
}

// RemainingIters returns the iterations still to run.
func (j *Job) RemainingIters() float64 {
	r := j.TotalIters - j.DoneIters
	if r < 0 {
		return 0
	}
	return r
}

// Done reports whether the termination condition is met. The tolerance is
// relative so that long jobs (billions of iterations) complete despite
// floating-point progress accumulation.
func (j *Job) Done() bool { return doneAt(j.DoneIters, j.TotalIters) }

func doneAt(done, total float64) bool {
	return done >= total-1e-9-1e-12*total
}

// MoveOverheadSec is the per-event cost planning margins reserve: the
// conservatively priced migration cost when the job's checkpoint has been
// sized, else the plain rescale overhead. Using the migration price keeps
// the deadline guarantee honest — the scheduler may move the job across
// any link, so the margin must cover the slowest.
func (j *Job) MoveOverheadSec() float64 {
	if j.MigrateOverheadSec > 0 {
		return j.MigrateOverheadSec
	}
	return j.RescaleOverheadSec
}

// MoveCharge is the ONE formula both the simulator's freeze and the live
// platform's FrozenUntil stamp apply when the job's block changes from→to:
// the in-place rescale overhead plus the checkpoint's wire time over the
// link it actually crosses. An identical block costs no wire time, and an
// unsized checkpoint (CheckpointBytes 0) prices exactly like before the
// data plane existed.
func (j *Job) MoveCharge(m transfer.CostModel, cfg topology.Config, from, to topology.Block) float64 {
	return j.RescaleOverheadSec + m.TransferTime(j.CheckpointBytes, topology.TransferLevel(cfg, from, to))
}

// HasDeadline reports whether the job carries a finite deadline.
func (j *Job) HasDeadline() bool { return !math.IsInf(j.Deadline, 1) }

// MetDeadline reports whether a completed job finished by its deadline.
// Best-effort jobs have no deadline to meet.
func (j *Job) MetDeadline() bool {
	return j.State == Completed && j.CompletionTime <= j.Deadline+1e-9
}

// Throughput returns the job's iterations/sec with g workers under best
// placement, honoring the Min/MaxGPUs bounds: counts below the floor yield
// zero, counts above the ceiling saturate at the ceiling's throughput.
func (j *Job) Throughput(g int) float64 {
	if g < j.MinGPUs || g <= 0 {
		return 0
	}
	if j.MaxGPUs > 0 && g > j.MaxGPUs {
		g = j.MaxGPUs
	}
	return j.Curve.At(g)
}

// TimeToFinish returns the wall time to run the remaining iterations with a
// constant allocation of g workers (+Inf when g is infeasible).
func (j *Job) TimeToFinish(g int) float64 {
	t := j.Throughput(g)
	if t <= 0 {
		return math.Inf(1)
	}
	return j.RemainingIters() / t
}

// Advance accrues dt seconds of progress at the current allocation,
// respecting the rescale freeze. It returns the progress made in iterations.
func (j *Job) Advance(now, dt float64) float64 {
	delta := j.progress(now, dt)
	j.DoneIters += delta
	return delta
}

// DoneAfter reports whether Advance(now, dt) would leave the job Done,
// without advancing it.
func (j *Job) DoneAfter(now, dt float64) bool {
	return doneAt(j.DoneIters+j.progress(now, dt), j.TotalIters)
}

// progress is the iterations dt seconds from now add at the current
// allocation: none while unallocated or frozen, never past the remaining work.
func (j *Job) progress(now, dt float64) float64 {
	if j.GPUs <= 0 || dt <= 0 {
		return 0
	}
	if j.FrozenUntil > now {
		frozen := j.FrozenUntil - now
		if frozen >= dt {
			return 0
		}
		dt -= frozen
	}
	delta := j.Throughput(j.GPUs) * dt
	if delta > j.RemainingIters() {
		delta = j.RemainingIters()
	}
	return delta
}

// PredictFinish is the one finish formula: when the job completes if it
// keeps its current allocation from now on — its remaining rescale freeze
// first, then the remaining iterations at the current throughput. +Inf while
// it holds no workers or they make no progress. The simulator schedules its
// next completion by it and the live platform reports it as a job's
// estimated finish.
func (j *Job) PredictFinish(now float64) float64 {
	if j.GPUs <= 0 {
		return math.Inf(1)
	}
	tput := j.Throughput(j.GPUs)
	if tput <= 0 {
		return math.Inf(1)
	}
	start := now
	if j.FrozenUntil > start {
		start = j.FrozenUntil
	}
	return start + j.RemainingIters()/tput
}

// String implements fmt.Stringer.
func (j *Job) String() string {
	return fmt.Sprintf("job %s [%s %s b=%d iters=%.0f ddl=%.0f %v]",
		j.ID, j.Model.Name, j.Class, j.GlobalBatch, j.TotalIters, j.Deadline, j.State)
}
