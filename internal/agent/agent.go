// Package agent is the worker-side control plane of Fig. 1: each simulated
// server runs an Agent exposing Launch/Step/Rescale/Stop/Status over net/rpc
// (the stdlib stand-in for the prototype's gRPC control messages, §5), and a
// Controller orchestrates jobs across agents — launching serverless
// training functions, rescaling them in place, and migrating them between
// agents by moving checkpoints over the chunked data plane (transfer.go),
// exactly the stop-free discipline the paper implements on PyTorch.
package agent

import (
	"errors"
	"fmt"
	"net"
	"net/rpc"
	"sync"

	"github.com/elasticflow/elasticflow/internal/elastic"
	"github.com/elasticflow/elasticflow/internal/obs"
	"github.com/elasticflow/elasticflow/internal/obs/tracing"
)

// TaskSpec describes a training task an agent can materialize locally: the
// model family, the synthetic dataset recipe, and the hyperparameters of
// the serverless function (§3.1). Everything is by value so it serializes
// over RPC.
type TaskSpec struct {
	// Dim is the input dimension; Hidden > 0 selects the MLP model,
	// otherwise linear regression.
	Dim    int
	Hidden int
	// DataSeed, DataN and Noise parameterize the synthetic dataset;
	// equal values reproduce the same data on any agent, which is what
	// makes checkpoint migration exact.
	DataSeed int64
	DataN    int
	Noise    float64
	// GlobalBatch and LearningRate are the user's hyperparameters.
	GlobalBatch  int
	LearningRate float64
	// InitSeed fixes the parameter initialization.
	InitSeed int64
	// TotalIters is the termination condition.
	TotalIters int
}

func (s TaskSpec) trainer(workers int) (*elastic.Trainer, error) {
	data, _ := elastic.SyntheticRegression(s.DataSeed, s.DataN, s.Dim, s.Noise)
	var m elastic.Model
	if s.Hidden > 0 {
		m = elastic.MLP{Dim: s.Dim, Hidden: s.Hidden}
	} else {
		m = elastic.LinearRegression{Dim: s.Dim}
	}
	return elastic.New(elastic.Config{
		Model:        m,
		Data:         data,
		GlobalBatch:  s.GlobalBatch,
		LearningRate: s.LearningRate,
		Workers:      workers,
		Seed:         s.InitSeed,
	})
}

// LaunchArgs starts (or resumes) a job on an agent.
type LaunchArgs struct {
	JobID   string
	Spec    TaskSpec
	Workers int
	// ResumeStaged restores from the checkpoint a chunked push staged on
	// this agent (CommitPush) — the one way a checkpoint enters an agent.
	// The staged entry is consumed.
	ResumeStaged bool
}

// LaunchReply reports the launched configuration.
type LaunchReply struct {
	Workers    int
	LocalBatch int
	Step       int
}

// StepArgs advances a job by Iters iterations.
type StepArgs struct {
	JobID string
	Iters int
}

// StepReply reports progress after stepping.
type StepReply struct {
	Step int
	Done bool
}

// StopArgs checkpoints and removes a job from the agent.
type StopArgs struct{ JobID string }

// StopReply describes the final checkpoint, pinned on the agent for
// chunked fetch.
type StopReply struct{ Offer TransferOffer }

// RescaleArgs changes a running job's worker count in place.
type RescaleArgs struct {
	JobID   string
	Workers int
}

// PingArgs is the empty heartbeat request.
type PingArgs struct{}

// PingReply reports agent liveness: its name and live task count.
type PingReply struct {
	Agent string
	Jobs  int
}

// StatusArgs queries a job.
type StatusArgs struct{ JobID string }

// StatusReply is a job's live status on its agent.
type StatusReply struct {
	Step       int
	Workers    int
	LocalBatch int
	Loss       float64
	Done       bool
}

// Agent hosts training tasks on one (simulated) server. Exported methods
// follow the net/rpc convention.
type Agent struct {
	name string
	// obs receives accept-loop failures; nil is fine (all emitters are
	// nil-safe no-ops).
	obs *obs.Obs

	mu sync.Mutex
	// tasks maps job IDs to their live training tasks. guarded by mu
	tasks map[string]*task
	// xferSeq numbers outbound transfer IDs. guarded by mu
	xferSeq int
	// reads maps transfer ID → checkpoint encoding pinned for chunked
	// fetch. guarded by mu
	reads map[string]*pinned
	// writes maps push transfer ID → in-progress inbound buffer.
	// guarded by mu
	writes map[string]*inbound
	// staged maps job ID → checkpoint landed by a committed push, awaiting
	// a ResumeStaged launch. guarded by mu
	staged map[string]*elastic.Checkpoint
}

type task struct {
	spec    TaskSpec
	trainer *elastic.Trainer
}

// NewAgent creates an agent named for diagnostics.
func NewAgent(name string) *Agent {
	return &Agent{
		name:   name,
		tasks:  make(map[string]*task),
		reads:  make(map[string]*pinned),
		writes: make(map[string]*inbound),
		staged: make(map[string]*elastic.Checkpoint),
	}
}

// WithObs routes the agent's background errors into o and returns a for
// chaining.
func (a *Agent) WithObs(o *obs.Obs) *Agent {
	a.obs = o
	return a
}

// Launch implements the RPC: materialize the task and start (or resume) it.
func (a *Agent) Launch(args LaunchArgs, reply *LaunchReply) error {
	tr, err := args.Spec.trainer(args.Workers)
	if err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.tasks[args.JobID]; ok {
		return fmt.Errorf("agent %s: job %s already running", a.name, args.JobID)
	}
	if args.ResumeStaged {
		ck, ok := a.staged[args.JobID]
		if !ok {
			return fmt.Errorf("agent %s: no staged checkpoint for job %s", a.name, args.JobID)
		}
		if err := tr.Restore(*ck); err != nil {
			return err
		}
		delete(a.staged, args.JobID)
	}
	a.tasks[args.JobID] = &task{spec: args.Spec, trainer: tr}
	*reply = LaunchReply{Workers: tr.Workers(), LocalBatch: tr.LocalBatch(), Step: tr.Step()}
	return nil
}

func (a *Agent) get(jobID string) (*task, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	t, ok := a.tasks[jobID]
	if !ok {
		return nil, fmt.Errorf("agent %s: unknown job %s", a.name, jobID)
	}
	return t, nil
}

// Step implements the RPC: run up to args.Iters iterations, stopping at the
// termination condition.
func (a *Agent) Step(args StepArgs, reply *StepReply) error {
	t, err := a.get(args.JobID)
	if err != nil {
		return err
	}
	n := args.Iters
	if remaining := t.spec.TotalIters - t.trainer.Step(); n > remaining {
		n = remaining
	}
	if n > 0 {
		if err := t.trainer.Steps(n); err != nil {
			return err
		}
	}
	*reply = StepReply{Step: t.trainer.Step(), Done: t.trainer.Step() >= t.spec.TotalIters}
	return nil
}

// Stop implements the RPC: checkpoint the job and remove it. The
// checkpoint stays on the agent, pinned for chunked fetch; only its offer
// travels in the reply.
func (a *Agent) Stop(args StopArgs, reply *StopReply) error {
	t, err := a.get(args.JobID)
	if err != nil {
		return err
	}
	data := t.trainer.Checkpoint().EncodeBytes()
	a.mu.Lock()
	delete(a.tasks, args.JobID)
	reply.Offer = a.pinLocked(args.JobID, data)
	a.mu.Unlock()
	return nil
}

// Rescale implements the RPC: change the worker count of a running job in
// place (§5's stop-free rescale). The trainer keeps its parameters and
// step, so no checkpoint leaves the agent.
func (a *Agent) Rescale(args RescaleArgs, reply *LaunchReply) error {
	t, err := a.get(args.JobID)
	if err != nil {
		return err
	}
	if _, err := t.trainer.Rescale(args.Workers); err != nil {
		return err
	}
	*reply = LaunchReply{Workers: t.trainer.Workers(), LocalBatch: t.trainer.LocalBatch(), Step: t.trainer.Step()}
	return nil
}

// Ping implements the heartbeat RPC the orchestrator's health monitor
// polls (DESIGN.md §9).
func (a *Agent) Ping(args PingArgs, reply *PingReply) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	*reply = PingReply{Agent: a.name, Jobs: len(a.tasks)}
	return nil
}

// Status implements the RPC.
func (a *Agent) Status(args StatusArgs, reply *StatusReply) error {
	t, err := a.get(args.JobID)
	if err != nil {
		return err
	}
	*reply = StatusReply{
		Step:       t.trainer.Step(),
		Workers:    t.trainer.Workers(),
		LocalBatch: t.trainer.LocalBatch(),
		Loss:       t.trainer.Loss(),
		Done:       t.trainer.Step() >= t.spec.TotalIters,
	}
	return nil
}

// Serve answers RPCs on l until the listener closes. It blocks; run it in a
// goroutine.
func (a *Agent) Serve(l net.Listener) error {
	srv := rpc.NewServer()
	if err := srv.RegisterName("Agent", a); err != nil {
		return err
	}
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go srv.ServeConn(conn)
	}
}

// Listen starts the agent on addr ("127.0.0.1:0" for an ephemeral port) and
// returns the bound address; the accept loop runs in the background until
// the returned stop function is called.
func (a *Agent) Listen(addr string) (string, func(), error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	go a.serveLoop(l)
	return l.Addr().String(), func() { _ = l.Close() }, nil
}

// serveLoop runs Serve and routes its terminal error — which used to be
// silently dropped — into the observability stack. Serve returns nil on a
// clean listener close, so anything non-nil is a real accept-loop crash.
func (a *Agent) serveLoop(l net.Listener) {
	if err := a.Serve(l); err != nil {
		a.obs.IncAcceptError()
		a.obs.EventNow(obs.KindError, "",
			tracing.A("agent", a.name), tracing.A("op", "accept"), tracing.A("err", err.Error()))
	}
}
