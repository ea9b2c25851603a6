// Package cluster is the full-stack orchestrator: it runs the serverless
// platform (admission + elastic scheduling + buddy placement) side by side
// with the worker-agent control plane (real elastic trainers over net/rpc)
// and continuously reconciles the two — every scheduling decision becomes a
// launch, rescale, migration or suspension of a live training job. It is
// the composition of every box in Fig. 1.
package cluster

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"github.com/elasticflow/elasticflow/internal/agent"
	"github.com/elasticflow/elasticflow/internal/elastic"
	"github.com/elasticflow/elasticflow/internal/faults"
	"github.com/elasticflow/elasticflow/internal/obs"
	"github.com/elasticflow/elasticflow/internal/obs/tracing"
	"github.com/elasticflow/elasticflow/internal/serverless"
	"github.com/elasticflow/elasticflow/internal/topology"
)

// Options configures an Orchestrator.
type Options struct {
	// Platform configures the scheduling side.
	Platform serverless.Options
	// Faults, when non-nil, wraps the controller↔agent transport so chaos
	// schedules fire deterministically (DESIGN.md §9). A crash fault also
	// closes the victim agent's listener, so redials fail like a dead
	// process's would.
	Faults *faults.Injector
	// Controller tunes the RPC robustness policy (per-call deadline,
	// retry budget, backoff). Its Obs and Dial fields default to the
	// platform's sink and the (possibly fault-wrapped) dialer.
	Controller agent.ControllerOptions
	// HeartbeatMisses is K: consecutive failed pings before the health
	// monitor declares an agent down (default 3).
	HeartbeatMisses int
}

// Orchestrator binds the platform to the agents.
type Orchestrator struct {
	platform *serverless.Platform
	ctrl     *agent.Controller
	topo     topology.Config
	// heartbeatK is the miss threshold K; immutable after New.
	heartbeatK int
	// listenStops closes one agent's listener; written only in New and
	// read-only afterwards.
	listenStops map[string]func()

	// mu is the outermost lock in the control plane: reconciliation holds
	// it while calling into the platform and the agent controller, so it
	// is always acquired before either of their locks.
	//
	//eflint:lockorder cluster.Orchestrator.mu serverless.Platform.mu
	//eflint:lockorder cluster.Orchestrator.mu agent.Controller.mu
	mu    sync.Mutex
	specs map[string]agent.TaskSpec // jobID → training task. guarded by mu
	// state per job on the agent side
	workers map[string]int                // jobID → live worker count (0 = suspended). guarded by mu
	homes   map[string]string             // jobID → agent name. guarded by mu
	parked  map[string]elastic.Checkpoint // checkpoints of suspended jobs. guarded by mu
	// mirrors holds the latest checkpoint copied off each live job's
	// agent — the state recovery restores from. guarded by mu
	mirrors map[string]elastic.Checkpoint
	// restoring marks jobs parked from a mirror after an agent loss:
	// their resume pushes the checkpoint over the data plane as an
	// urgent transfer instead of riding inline. guarded by mu
	restoring map[string]bool
	// missed counts consecutive failed heartbeats per agent. guarded by mu
	missed map[string]int
	// downAgents marks agents the monitor declared dead. guarded by mu
	downAgents map[string]bool
	stops      []func()
}

// New starts one in-process agent per (virtual) server, speaking net/rpc
// over loopback TCP exactly as they would across machines, and a platform
// whose scheduling decisions the orchestrator reconciles onto them.
func New(opts Options) (*Orchestrator, error) {
	if opts.Platform.Topology.Servers == 0 {
		opts.Platform.Topology = topology.Config{Servers: 2, GPUsPerServer: 8}
	}
	platform, err := serverless.NewPlatform(opts.Platform)
	if err != nil {
		return nil, err
	}
	copts := opts.Controller
	if copts.Obs == nil {
		copts.Obs = platform.Obs()
	}
	if opts.Faults != nil {
		// The injector shares the platform's sink so injected faults land
		// in the same event log as the recovery they trigger, and wraps
		// the dialer so crashed agents refuse reconnection.
		opts.Faults.WithObs(platform.Obs())
		dial := copts.Dial
		if dial == nil {
			dial = agent.DefaultDial
		}
		copts.Dial = opts.Faults.WrapDial(dial)
	}
	if opts.HeartbeatMisses <= 0 {
		opts.HeartbeatMisses = 3
	}
	o := &Orchestrator{
		platform:    platform,
		ctrl:        agent.NewControllerWith(copts),
		topo:        opts.Platform.Topology,
		heartbeatK:  opts.HeartbeatMisses,
		listenStops: make(map[string]func()),
		specs:       make(map[string]agent.TaskSpec),
		workers:     make(map[string]int),
		homes:       make(map[string]string),
		parked:      make(map[string]elastic.Checkpoint),
		mirrors:     make(map[string]elastic.Checkpoint),
		restoring:   make(map[string]bool),
		missed:      make(map[string]int),
		downAgents:  make(map[string]bool),
	}
	for i := 0; i < opts.Platform.Topology.Servers; i++ {
		name := agentName(i)
		// Agents share the platform's obs sink so accept-loop failures
		// land in the same event log the scheduler writes to.
		a := agent.NewAgent(name).WithObs(platform.Obs())
		addr, stop, err := a.Listen("127.0.0.1:0")
		if err != nil {
			o.Close()
			return nil, err
		}
		o.stops = append(o.stops, stop)
		o.listenStops[name] = stop
		if err := o.ctrl.Connect(name, addr); err != nil {
			o.Close()
			return nil, err
		}
	}
	if opts.Faults != nil {
		// A crash fault kills the whole agent process in the model: close
		// its listener so even un-injected traffic sees a dead peer.
		opts.Faults.OnCrash(func(name string) {
			if stop, ok := o.listenStops[name]; ok {
				stop()
			}
		})
	}
	return o, nil
}

func agentName(server int) string { return fmt.Sprintf("server-%d", server) }

// Platform exposes the scheduling side (submit via Submit below so the
// training task is registered too).
func (o *Orchestrator) Platform() *serverless.Platform { return o.platform }

// AgentAddrs returns the dial address of every agent the controller knows,
// keyed by name — the piece of wiring a recovery driver persists and hands
// back to NewRecovered after a controller crash.
func (o *Orchestrator) AgentAddrs() map[string]string { return o.ctrl.Addrs() }

// Close tears down the controller connections and agents.
func (o *Orchestrator) Close() {
	o.ctrl.Close()
	for _, stop := range o.stops {
		stop()
	}
}

// Submit sends the serverless function to the platform and registers the
// concrete training task to run if admitted. The first reconciliation
// launches it.
func (o *Orchestrator) Submit(req serverless.SubmitRequest, task agent.TaskSpec) (serverless.JobStatus, error) {
	st, err := o.platform.Submit(req)
	if err != nil {
		return st, err
	}
	if st.State == "dropped" {
		return st, nil
	}
	o.mu.Lock()
	o.specs[st.ID] = task
	o.mu.Unlock()
	if err := o.Reconcile(); err != nil {
		return st, err
	}
	return st, nil
}

// Reconcile drives the agent side to match the platform's current decision:
// desired worker counts and placements become launches, in-place rescales,
// cross-agent migrations, or suspensions (§5). It is idempotent. A per-job
// RPC failure no longer aborts the pass: the remaining jobs are still
// reconciled, per-job state rolls forward only on success, and the failures
// come back joined so the caller sees every one. After the pass it mirrors
// each live job's checkpoint off its agent (best effort) so recovery can
// restart the job elsewhere if that agent dies.
func (o *Orchestrator) Reconcile() error {
	o.platform.Tick()
	desired := o.platform.Allocations()

	o.mu.Lock()
	defer o.mu.Unlock()
	// Deterministic order.
	ids := make([]string, 0, len(o.specs))
	for id := range o.specs {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	var errs []error
	for _, id := range ids {
		spec := o.specs[id]
		want, active := desired[id]
		cur := o.workers[id]
		wantAgent := o.agentForLocked(id)
		curAgent := o.homes[id]

		switch {
		case !active || want == 0:
			// Suspended or finished on the platform: checkpoint and
			// park the state until a restart (§5: "ElasticFlow
			// checkpoints the parameters until it is restarted").
			if cur > 0 {
				ck, err := o.ctrl.Stop(id)
				if err != nil {
					errs = append(errs, fmt.Errorf("cluster: suspend %s: %w", id, err))
					continue
				}
				o.parked[id] = ck
				o.workers[id] = 0
				delete(o.homes, id)
				delete(o.mirrors, id)
				delete(o.restoring, id)
			}
			if !active {
				delete(o.specs, id)
				delete(o.parked, id)
				delete(o.mirrors, id)
				delete(o.restoring, id)
			}
		case cur == 0:
			// Fresh launch, or resume from the parked checkpoint. A job
			// parked by agent loss resumes over the data plane: its
			// mirrored checkpoint is pushed to the new agent in
			// CRC-verified chunks as an urgent transfer (recovery outranks
			// best-effort mirroring at the transfer gate).
			var err error
			if ck, suspended := o.parked[id]; suspended {
				if o.restoring[id] {
					_, err = o.ctrl.ResumeStaged(id, spec, wantAgent, want, ck, true)
				} else {
					_, err = o.ctrl.Resume(id, spec, wantAgent, want, ck)
				}
			} else {
				_, err = o.ctrl.Launch(id, spec, wantAgent, want)
			}
			if err != nil {
				errs = append(errs, fmt.Errorf("cluster: launch %s: %w", id, err))
				continue
			}
			delete(o.parked, id)
			delete(o.restoring, id)
			o.workers[id] = want
			o.homes[id] = wantAgent
		case curAgent != wantAgent:
			if _, err := o.ctrl.Migrate(id, wantAgent, want); err != nil {
				errs = append(errs, fmt.Errorf("cluster: migrate %s: %w", id, err))
				continue
			}
			o.workers[id] = want
			o.homes[id] = wantAgent
		case cur != want:
			if _, err := o.ctrl.Rescale(id, want); err != nil {
				errs = append(errs, fmt.Errorf("cluster: rescale %s: %w", id, err))
				continue
			}
			o.workers[id] = want
		}
	}
	o.mirrorLocked(ids)
	return errors.Join(errs...)
}

// mirrorLocked copies each live job's current checkpoint into the
// orchestrator's mirror store, streaming it off the agent in CRC-verified
// chunks over the data plane. Failures — including a source agent dying
// mid-stream — are recorded on the obs sink but do not fail the
// reconciliation: a missed mirror only widens the restart window, the
// previous mirror still bounds the loss. Jobs the platform marks
// deadline-at-risk fetch urgently, overtaking queued best-effort
// transfers at the agent's gate.
func (o *Orchestrator) mirrorLocked(ids []string) {
	sink := o.platform.Obs()
	tr := sink.Tracer()
	for _, id := range ids {
		if o.workers[id] == 0 {
			continue
		}
		if _, still := o.specs[id]; !still {
			continue
		}
		span := tr.Begin(sink.Now(), tracing.SpanCheckpointMirror, id)
		urgent := false
		if st, err := o.platform.Get(id); err == nil {
			urgent = st.DeadlineAtRisk
		}
		ck, _, err := o.ctrl.FetchCheckpoint(id, urgent)
		if err != nil {
			sink.IncError("checkpoint-mirror")
			tr.End(sink.Now(), span, tracing.A("ok", false))
			continue
		}
		o.mirrors[id] = ck
		sink.IncMirror()
		sink.EventNow(obs.KindMirror, id, tracing.A("step", ck.Step), tracing.A("agent", o.homes[id]))
		tr.End(sink.Now(), span,
			tracing.A("ok", true), tracing.A("step", ck.Step), tracing.A("agent", o.homes[id]))
	}
}

// agentForLocked maps a job's buddy placement to the agent hosting its first
// GPU, skipping agents the health monitor declared down. (A multi-server
// block trains through its lead agent in this in-process deployment; the
// real system would gang workers across agents.)
func (o *Orchestrator) agentForLocked(id string) string {
	if b, ok := o.platform.PlacementOf(id); ok {
		if name := agentName(b.Start / o.topo.GPUsPerServer); !o.downAgents[name] {
			return name
		}
	}
	for i := 0; i < o.topo.Servers; i++ {
		if name := agentName(i); !o.downAgents[name] {
			return name
		}
	}
	return agentName(0)
}

// Step advances every live trainer by n iterations. Like Reconcile it keeps
// going past per-job failures and reports them joined, so one dead agent
// cannot stall every other job's training.
func (o *Orchestrator) Step(n int) error {
	o.mu.Lock()
	ids := make([]string, 0, len(o.workers))
	for id, w := range o.workers {
		if w > 0 {
			ids = append(ids, id)
		}
	}
	o.mu.Unlock()
	sort.Strings(ids)
	var errs []error
	for _, id := range ids {
		if _, err := o.ctrl.Step(id, n); err != nil {
			errs = append(errs, fmt.Errorf("cluster: step %s: %w", id, err))
		}
	}
	return errors.Join(errs...)
}

// TrainingStatus reports a live job's agent-side state.
func (o *Orchestrator) TrainingStatus(id string) (agent.StatusReply, error) {
	return o.ctrl.Status(id)
}

// Home returns which agent currently hosts the job.
func (o *Orchestrator) Home(id string) (string, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	h, ok := o.homes[id]
	return h, ok
}
