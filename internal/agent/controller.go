package agent

import (
	"errors"
	"fmt"
	"math/rand"
	"net/rpc"
	"reflect"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/elasticflow/elasticflow/internal/elastic"
	"github.com/elasticflow/elasticflow/internal/faults"
	"github.com/elasticflow/elasticflow/internal/obs"
	"github.com/elasticflow/elasticflow/internal/obs/tracing"
	"github.com/elasticflow/elasticflow/internal/transfer"
)

// Controller is the scheduler-side endpoint of the control plane: it tracks
// which agent runs which job and turns scheduling decisions into
// Launch/Rescale/Stop RPCs, including cross-agent migration by checkpoint
// transfer (§5 "sends the parameters of the running jobs to the workers
// based on the scheduling decision and then restarts the jobs from the
// received parameters").
//
// Every RPC observes a per-call deadline and a bounded retry policy with
// exponential backoff + jitter (DESIGN.md §9): errors the agent itself
// returned (rpc.ServerError) are fatal and surface immediately; transport
// errors — timeouts, dropped connections, injected faults — drop the
// cached connection, redial, and retry; exhausting the budget (or hitting a
// crashed/disconnected agent) yields an *AgentDownError the orchestrator's
// recovery path keys off.
type Controller struct {
	opts ControllerOptions

	mu      sync.Mutex
	clients map[string]faults.Caller  // agent name → connection. guarded by mu
	addrs   map[string]string         // agent name → dial address. guarded by mu
	down    map[string]bool           // agents explicitly Disconnected. guarded by mu
	specs   map[string]TaskSpec       // job → spec. guarded by mu
	homes   map[string]string         // job → agent name. guarded by mu
	rng     *rand.Rand                // backoff jitter. guarded by mu
	gates   map[string]*transfer.Gate // agent name → transfer admission. guarded by mu
}

// ControllerOptions tunes the controller's RPC robustness policy. The zero
// value gives production defaults.
type ControllerOptions struct {
	// CallTimeout bounds each RPC attempt (default 2s). Negative disables
	// the deadline (legacy blocking behavior — tests only).
	CallTimeout time.Duration
	// MaxRetries is the number of attempts beyond the first for retryable
	// failures (default 2). Negative means no retries.
	MaxRetries int
	// RetryBackoff is the base backoff before the first retry (default
	// 10ms); it doubles per attempt up to MaxBackoff (default 1s), with
	// uniform jitter in [0.5, 1.0]× drawn from a source seeded by Seed.
	RetryBackoff time.Duration
	MaxBackoff   time.Duration
	Seed         int64
	// Sleep performs the backoff wait (default time.Sleep). Deterministic
	// tests inject a no-op.
	Sleep func(time.Duration)
	// Dial opens a connection to a named agent (default DefaultDial). The
	// fault injector's WrapDial hooks in here.
	Dial func(name, addr string) (faults.Caller, error)
	// Obs receives retry events; nil is fine.
	Obs *obs.Obs
	// ChunkSize is the checkpoint-transfer frame payload size (default
	// transfer.DefaultChunkSize).
	ChunkSize int
	// TransferCap bounds concurrent checkpoint transfers per agent
	// (default transfer.DefaultTransferCap). Negative disables the gate.
	TransferCap int
}

// DefaultDial opens a plain net/rpc TCP connection.
func DefaultDial(name, addr string) (faults.Caller, error) {
	cl, err := rpc.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return cl, nil
}

// ErrCallTimeout marks an RPC attempt that exceeded CallTimeout.
var ErrCallTimeout = errors.New("agent: rpc call timed out")

// errUnknownAgent marks a call to a name never Connected — a wiring bug,
// not a transport failure, so it is never retried.
var errUnknownAgent = errors.New("agent: unknown agent")

// errDisconnected marks a call to an agent removed with Disconnect.
var errDisconnected = errors.New("agent: disconnected")

// AgentDownError reports that an agent is considered unreachable: the retry
// budget was exhausted, the fault injector crashed it, or it was explicitly
// Disconnected. The recovery path in cluster.Orchestrator keys off it.
type AgentDownError struct {
	Agent string
	Err   error
}

func (e *AgentDownError) Error() string {
	return fmt.Sprintf("agent: %s is down: %v", e.Agent, e.Err)
}

func (e *AgentDownError) Unwrap() error { return e.Err }

// IsAgentDown reports whether err marks an unreachable agent, and which.
func IsAgentDown(err error) (string, bool) {
	var ad *AgentDownError
	if errors.As(err, &ad) {
		return ad.Agent, true
	}
	return "", false
}

// NewController creates a controller with default robustness options.
func NewController() *Controller {
	return NewControllerWith(ControllerOptions{})
}

// NewControllerWith creates a controller with the given options, applying
// defaults to unset fields.
func NewControllerWith(opts ControllerOptions) *Controller {
	if opts.CallTimeout == 0 {
		opts.CallTimeout = 2 * time.Second
	}
	if opts.MaxRetries == 0 {
		opts.MaxRetries = 2
	} else if opts.MaxRetries < 0 {
		opts.MaxRetries = 0
	}
	if opts.RetryBackoff <= 0 {
		opts.RetryBackoff = 10 * time.Millisecond
	}
	if opts.MaxBackoff <= 0 {
		opts.MaxBackoff = time.Second
	}
	if opts.Sleep == nil {
		opts.Sleep = time.Sleep
	}
	if opts.Dial == nil {
		opts.Dial = DefaultDial
	}
	return &Controller{
		opts:    opts,
		clients: make(map[string]faults.Caller),
		addrs:   make(map[string]string),
		down:    make(map[string]bool),
		specs:   make(map[string]TaskSpec),
		homes:   make(map[string]string),
		rng:     rand.New(rand.NewSource(opts.Seed)),
		gates:   make(map[string]*transfer.Gate),
	}
}

// Connect dials an agent and registers it under name. Reconnecting a name
// previously removed with Disconnect clears its down mark.
func (c *Controller) Connect(name, addr string) error {
	client, err := c.opts.Dial(name, addr)
	if err != nil {
		return fmt.Errorf("agent: dialing %s at %s: %w", name, addr, err)
	}
	c.mu.Lock()
	if _, ok := c.clients[name]; ok {
		c.mu.Unlock()
		c.closeQuietly(client)
		return fmt.Errorf("agent: %s already connected", name)
	}
	c.clients[name] = client
	c.addrs[name] = addr
	delete(c.down, name)
	c.mu.Unlock()
	return nil
}

// Disconnect closes and removes an agent's connection and marks it down:
// calls routed to it fail immediately with *AgentDownError (no redial)
// until Connect registers it again.
func (c *Controller) Disconnect(name string) {
	c.mu.Lock()
	cl, ok := c.clients[name]
	delete(c.clients, name)
	c.down[name] = true
	c.mu.Unlock()
	if ok {
		c.closeQuietly(cl)
	}
}

// Agents returns the connected agent names, sorted.
func (c *Controller) Agents() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	names := make([]string, 0, len(c.clients))
	for n := range c.clients {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Home returns the agent currently hosting jobID.
func (c *Controller) Home(jobID string) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	h, ok := c.homes[jobID]
	return h, ok
}

// DropJobs forgets every job homed on the named agent without issuing any
// RPC — the agent is gone and its tasks died with it. Returns the dropped
// job IDs, sorted; their specs are kept so they can be relaunched.
func (c *Controller) DropJobs(agentName string) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var ids []string
	for id, home := range c.homes {
		if home == agentName {
			ids = append(ids, id)
			delete(c.homes, id)
		}
	}
	sort.Strings(ids)
	return ids
}

// closeQuietly closes a transport, routing the (rare) close error to obs —
// used where the caller has no better channel for it. Double-closes after
// a drop fault or timeout are expected and not reported.
func (c *Controller) closeQuietly(cl faults.Caller) {
	if err := cl.Close(); err != nil && !errors.Is(err, rpc.ErrShutdown) {
		c.opts.Obs.IncError("controller-close")
	}
}

// clientOrRedial returns the cached connection for an agent, redialing if
// the previous one was dropped. Down-marked agents are refused.
func (c *Controller) clientOrRedial(name string) (faults.Caller, error) {
	c.mu.Lock()
	if cl, ok := c.clients[name]; ok {
		c.mu.Unlock()
		return cl, nil
	}
	if c.down[name] {
		c.mu.Unlock()
		return nil, &AgentDownError{Agent: name, Err: errDisconnected}
	}
	addr, ok := c.addrs[name]
	c.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w %q", errUnknownAgent, name)
	}
	cl, err := c.opts.Dial(name, addr)
	if err != nil {
		return nil, fmt.Errorf("agent: redialing %s at %s: %w", name, addr, err)
	}
	c.mu.Lock()
	if exist, ok := c.clients[name]; ok {
		// Lost a redial race; keep the established connection.
		c.mu.Unlock()
		c.closeQuietly(cl)
		return exist, nil
	}
	c.clients[name] = cl
	c.mu.Unlock()
	return cl, nil
}

// dropClient discards a connection after a transport failure so the next
// attempt redials, closing it to unblock any goroutine still waiting on it.
func (c *Controller) dropClient(name string, cl faults.Caller) {
	c.mu.Lock()
	if c.clients[name] == cl {
		delete(c.clients, name)
	}
	c.mu.Unlock()
	c.closeQuietly(cl)
}

// callOnce performs a single RPC attempt under the per-call deadline. On
// timeout the attempt's goroutine may still be in flight — the caller must
// not reuse the reply value (see call's fresh-reply discipline) and should
// drop the connection to unblock it.
func (c *Controller) callOnce(cl faults.Caller, method string, args, reply any) error {
	if c.opts.CallTimeout < 0 {
		return cl.Call(method, args, reply)
	}
	done := make(chan error, 1)
	go func() { done <- cl.Call(method, args, reply) }()
	t := time.NewTimer(c.opts.CallTimeout)
	defer t.Stop()
	select {
	case err := <-done:
		return err
	case <-t.C:
		return fmt.Errorf("%w: %s after %v", ErrCallTimeout, method, c.opts.CallTimeout)
	}
}

// fatalCall reports errors the agent itself returned (it received and
// processed the request — retrying would re-execute, not recover).
func fatalCall(err error) bool {
	var se rpc.ServerError
	return errors.As(err, &se)
}

// backoff returns the jittered exponential backoff before retry attempt n
// (n ≥ 1): RetryBackoff·2ⁿ⁻¹ capped at MaxBackoff, scaled by a uniform
// factor in [0.5, 1.0] from the controller's seeded source.
func (c *Controller) backoff(attempt int) time.Duration {
	d := c.opts.RetryBackoff << uint(attempt-1)
	if d > c.opts.MaxBackoff || d <= 0 {
		d = c.opts.MaxBackoff
	}
	c.mu.Lock()
	f := 0.5 + 0.5*c.rng.Float64()
	c.mu.Unlock()
	return time.Duration(float64(d) * f)
}

// call runs one RPC against an agent under the full robustness policy:
// per-attempt deadline, bounded retries with backoff, error classification.
// Each attempt gets a fresh reply value; the caller's reply is written only
// on success, so a timed-out attempt's late write cannot race it.
func (c *Controller) call(agentName, method string, args, reply any) error {
	rv := reflect.ValueOf(reply)
	op := strings.TrimPrefix(method, "Agent.")
	var lastErr error
	for attempt := 0; attempt <= c.opts.MaxRetries; attempt++ {
		if attempt > 0 {
			c.opts.Obs.EventNow(obs.KindRetry, "",
				tracing.A("agent", agentName), tracing.A("op", op), tracing.A("attempt", attempt))
			c.opts.Sleep(c.backoff(attempt))
		}
		cl, err := c.clientOrRedial(agentName)
		if err != nil {
			if errors.Is(err, errUnknownAgent) {
				return err
			}
			if _, ok := IsAgentDown(err); ok {
				return err
			}
			var ce *faults.CrashedError
			if errors.As(err, &ce) {
				return &AgentDownError{Agent: agentName, Err: err}
			}
			lastErr = err
			continue
		}
		fresh := reflect.New(rv.Type().Elem())
		err = c.callOnce(cl, method, args, fresh.Interface())
		if err == nil {
			rv.Elem().Set(fresh.Elem())
			return nil
		}
		if fatalCall(err) {
			return err
		}
		lastErr = err
		c.dropClient(agentName, cl)
		var ce *faults.CrashedError
		if errors.As(err, &ce) {
			return &AgentDownError{Agent: agentName, Err: err}
		}
	}
	return &AgentDownError{Agent: agentName, Err: lastErr}
}

// Ping heartbeats an agent: a single attempt under the call deadline, no
// retries — the health monitor does its own miss counting.
func (c *Controller) Ping(name string) (PingReply, error) {
	cl, err := c.clientOrRedial(name)
	if err != nil {
		return PingReply{}, err
	}
	var reply PingReply
	if err := c.callOnce(cl, "Agent.Ping", PingArgs{}, &reply); err != nil {
		if !fatalCall(err) {
			c.dropClient(name, cl)
		}
		return PingReply{}, err
	}
	return reply, nil
}

// Addrs returns the dial address of every registered agent, keyed by name —
// the piece of controller state a recovery driver persists so a restarted
// controller can re-dial the agents that survived it.
func (c *Controller) Addrs() map[string]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]string, len(c.addrs))
	for name, addr := range c.addrs {
		out[name] = addr
	}
	return out
}

// Adopt probes agentName for a live jobID and, when the job is training
// there, re-registers the routing entry a controller restart lost, so
// Status/Rescale/Stop work again. ok=false with a nil error means the agent
// answered and does not host the job; a non-nil error means the agent could
// not be asked.
func (c *Controller) Adopt(agentName, jobID string, spec TaskSpec) (StatusReply, bool, error) {
	var reply StatusReply
	if err := c.call(agentName, "Agent.Status", StatusArgs{JobID: jobID}, &reply); err != nil {
		if fatalCall(err) {
			// The agent processed the request: the job is not there.
			return StatusReply{}, false, nil
		}
		return StatusReply{}, false, err
	}
	c.mu.Lock()
	c.specs[jobID] = spec
	c.homes[jobID] = agentName
	c.mu.Unlock()
	return reply, true, nil
}

// Launch starts a fresh job on the named agent with the given worker count.
func (c *Controller) Launch(jobID string, spec TaskSpec, agentName string, workers int) (LaunchReply, error) {
	return c.launch(LaunchArgs{JobID: jobID, Spec: spec, Workers: workers}, agentName)
}

// launch sends one Launch RPC and records the job's route on success.
func (c *Controller) launch(args LaunchArgs, agentName string) (LaunchReply, error) {
	var reply LaunchReply
	if err := c.call(agentName, "Agent.Launch", args, &reply); err != nil {
		return LaunchReply{}, err
	}
	c.mu.Lock()
	c.specs[args.JobID] = args.Spec
	c.homes[args.JobID] = agentName
	c.mu.Unlock()
	return reply, nil
}

// Rescale changes a job's worker count in place on its home agent (§5's
// stop-free rescale): the trainer keeps its state, no checkpoint moves.
func (c *Controller) Rescale(jobID string, workers int) (LaunchReply, error) {
	home, ok := c.Home(jobID)
	if !ok {
		return LaunchReply{}, fmt.Errorf("agent: job %q is not running anywhere", jobID)
	}
	var reply LaunchReply
	err := c.call(home, "Agent.Rescale", RescaleArgs{JobID: jobID, Workers: workers}, &reply)
	return reply, err
}

// Migrate moves a job to another agent (the defragmentation path of §4.3)
// over the data plane: the source stops the job and pins its final
// checkpoint, the controller fetches it as CRC-framed chunks and pushes it
// to the target, and the target launches from its staged copy.
func (c *Controller) Migrate(jobID, toAgent string, workers int) (LaunchReply, error) {
	c.mu.Lock()
	from, ok := c.homes[jobID]
	spec := c.specs[jobID]
	c.mu.Unlock()
	if !ok {
		return LaunchReply{}, fmt.Errorf("agent: job %q is not running anywhere", jobID)
	}
	ck, err := c.Stop(jobID)
	if err != nil {
		return LaunchReply{}, err
	}
	reply, err := c.ResumeStaged(jobID, spec, toAgent, workers, ck, false)
	if err == nil {
		return reply, nil
	}
	// The target refused the job but the checkpoint is still in hand: roll
	// back to the source so a failed migration doesn't strand the job.
	if _, rbErr := c.ResumeStaged(jobID, spec, from, workers, ck, false); rbErr != nil {
		return LaunchReply{}, errors.Join(
			fmt.Errorf("agent: migrating %s to %s: %w", jobID, toAgent, err),
			fmt.Errorf("agent: rollback of %s to %s: %w", jobID, from, rbErr))
	}
	return LaunchReply{}, fmt.Errorf("agent: migrating %s to %s (rolled back to %s): %w", jobID, toAgent, from, err)
}

// Step advances a job by up to iters iterations on its home agent.
func (c *Controller) Step(jobID string, iters int) (StepReply, error) {
	home, ok := c.Home(jobID)
	if !ok {
		return StepReply{}, fmt.Errorf("agent: job %q is not running anywhere", jobID)
	}
	var reply StepReply
	err := c.call(home, "Agent.Step", StepArgs{JobID: jobID, Iters: iters}, &reply)
	return reply, err
}

// Status queries a job on its home agent.
func (c *Controller) Status(jobID string) (StatusReply, error) {
	home, ok := c.Home(jobID)
	if !ok {
		return StatusReply{}, fmt.Errorf("agent: job %q is not running anywhere", jobID)
	}
	var reply StatusReply
	err := c.call(home, "Agent.Status", StatusArgs{JobID: jobID}, &reply)
	return reply, err
}

// Stop checkpoints and removes a job, fetching its final state off the
// agent over the data plane.
func (c *Controller) Stop(jobID string) (elastic.Checkpoint, error) {
	home, ok := c.Home(jobID)
	if !ok {
		return elastic.Checkpoint{}, fmt.Errorf("agent: job %q is not running anywhere", jobID)
	}
	var reply StopReply
	if err := c.call(home, "Agent.Stop", StopArgs{JobID: jobID}, &reply); err != nil {
		return elastic.Checkpoint{}, err
	}
	c.mu.Lock()
	delete(c.homes, jobID)
	c.mu.Unlock()
	ck, _, err := c.fetchOffer(jobID, home, reply.Offer, false)
	if err != nil {
		return elastic.Checkpoint{}, fmt.Errorf("agent: fetching checkpoint of %s from %s: %w", jobID, home, err)
	}
	return ck, nil
}

// Close tears down every connection.
func (c *Controller) Close() {
	c.mu.Lock()
	clients := c.clients
	c.clients = make(map[string]faults.Caller)
	c.mu.Unlock()
	for _, cl := range clients {
		c.closeQuietly(cl)
	}
}
