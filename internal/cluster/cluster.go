// Package cluster is the full-stack orchestrator: it carries out one
// front-door shard's scheduling decisions (admission + elastic scheduling +
// buddy placement) on the worker-agent control plane (real elastic trainers
// over net/rpc) and continuously reconciles the two — every scheduling
// decision becomes a launch, rescale, migration or suspension of a live
// training job. Like the paper's elastic executor (§5) it only executes:
// jobs enter through the front door, the shard owns the clock, and the
// orchestrator reads the shard's decisions and reports agent loss and
// return. It is the composition of every box in Fig. 1.
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
	// Faults, when non-nil, wraps the controller↔agent transport so chaos
	// schedules fire deterministically (DESIGN.md §9). A crash fault also
	// closes the victim agent's listener, so redials fail like a dead
	// process's would.
	Faults *faults.Injector
	// Controller tunes the RPC robustness policy (per-call deadline,
	// retry budget, backoff). Its Obs and Dial fields default to the
	// shard's sink and the (possibly fault-wrapped) dialer.
	Controller agent.ControllerOptions
	// HeartbeatMisses is K: consecutive failed pings before the health
	// monitor declares an agent down (default 3).
	HeartbeatMisses int
}

// Orchestrator binds one front-door shard to the agents of its servers.
type Orchestrator struct {
	platform *serverless.Platform
	ctrl     *agent.Controller
	topo     topology.Config
	// heartbeatK is the miss threshold K; immutable after construction.
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
	// their resume push is an urgent transfer. guarded by mu
	restoring map[string]bool
	// missed counts consecutive failed heartbeats per agent. guarded by mu
	missed map[string]int
	// downAgents marks agents the monitor declared dead. guarded by mu
	downAgents map[string]bool
	stops      []func()
}

// bind is the constructor body New and NewRecovered share: the
// controller, wired to the shard's sink and the (possibly fault-wrapped)
// dialer, and empty per-job state. The server layout is the shard's own.
func bind(shard *serverless.Platform, opts Options) *Orchestrator {
	copts := opts.Controller
	if copts.Obs == nil {
		copts.Obs = shard.Obs()
	}
	if opts.Faults != nil {
		// The injector shares the shard's sink so injected faults land in
		// the same event log as the recovery they trigger, and wraps the
		// dialer so crashed agents refuse reconnection.
		opts.Faults.WithObs(shard.Obs())
		dial := copts.Dial
		if dial == nil {
			dial = agent.DefaultDial
		}
		copts.Dial = opts.Faults.WrapDial(dial)
	}
	if opts.HeartbeatMisses <= 0 {
		opts.HeartbeatMisses = 3
	}
	return &Orchestrator{
		platform:    shard,
		ctrl:        agent.NewControllerWith(copts),
		topo:        shard.Topology(),
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
}

// New starts one in-process agent per server of the shard, speaking
// net/rpc over loopback TCP exactly as they would across machines, and
// reconciles the shard's decisions onto them. shard is a front-door shard
// (frontdoor.FrontDoor.Shard); jobs reach it only through the front door.
func New(shard *serverless.Platform, opts Options) (*Orchestrator, error) {
	o := bind(shard, opts)
	for i := 0; i < o.topo.Servers; i++ {
		name := agentName(i)
		// Agents share the shard's obs sink so accept-loop failures land
		// in the same event log the scheduler writes to.
		a := agent.NewAgent(name).WithObs(shard.Obs())
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

// Register attaches the concrete training task to a job the front door
// admitted and reconciles, so the job launches on its agent. A task for a
// job the shard does not hold active is forgotten by that reconciliation.
func (o *Orchestrator) Register(id string, task agent.TaskSpec) error {
	o.mu.Lock()
	o.specs[id] = task
	o.mu.Unlock()
	return o.Reconcile()
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
			// Fresh launch, or resume from the parked checkpoint, pushed
			// to the new agent in CRC-verified chunks. A job parked by
			// agent loss pushes urgently: recovery outranks best-effort
			// mirroring at the transfer gate.
			var err error
			if ck, suspended := o.parked[id]; suspended {
				_, err = o.ctrl.ResumeStaged(id, spec, wantAgent, want, ck, o.restoring[id])
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
// orchestrator's mirror store (mirrorOneLocked).
func (o *Orchestrator) mirrorLocked(ids []string) {
	for _, id := range ids {
		if o.workers[id] == 0 {
			continue
		}
		if _, still := o.specs[id]; !still {
			continue
		}
		o.mirrorOneLocked(id)
	}
}

// mirrorOneLocked streams one live job's checkpoint off its agent in
// CRC-verified chunks over the data plane into the mirror store. A failure —
// including a source agent dying mid-stream — is recorded on the obs sink
// but fails nothing: a missed mirror only widens the restart window, the
// previous mirror still bounds the loss. Jobs the shard marks
// deadline-at-risk fetch urgently, overtaking queued best-effort transfers
// at the agent's gate.
func (o *Orchestrator) mirrorOneLocked(id string) {
	sink := o.platform.Obs()
	tr := sink.Tracer()
	span := tr.Begin(sink.Now(), tracing.SpanCheckpointMirror, id)
	urgent := false
	if st, err := o.platform.Get(id); err == nil {
		urgent = st.DeadlineAtRisk
	}
	ck, _, err := o.ctrl.FetchCheckpoint(id, urgent)
	if err != nil {
		sink.IncError("checkpoint-mirror")
		tr.End(sink.Now(), span, tracing.A("ok", false))
		return
	}
	o.mirrors[id] = ck
	sink.EventNow(obs.KindMirror, id, tracing.A("step", ck.Step), tracing.A("agent", o.homes[id]))
	tr.End(sink.Now(), span,
		tracing.A("ok", true), tracing.A("step", ck.Step), tracing.A("agent", o.homes[id]))
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
