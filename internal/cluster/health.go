package cluster

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/elasticflow/elasticflow/internal/obs"
	"github.com/elasticflow/elasticflow/internal/obs/tracing"
)

// This file is the agent health monitor and the recovery path it triggers
// (§4.4 on the live stack): periodic Ping heartbeats, a K-consecutive-miss
// down declaration, and checkpoint-mirrored restart of the dead agent's
// jobs on the survivors.

// serverIndex inverts agentName; -1 if the name is not one of ours.
func serverIndex(name string) int {
	var i int
	if _, err := fmt.Sscanf(name, "server-%d", &i); err != nil || name != agentName(i) {
		return -1
	}
	return i
}

// HealthCheck pings every agent not already declared down, once each. An
// agent that fails K consecutive checks (Options.HeartbeatMisses) is
// declared dead and its jobs are recovered. Returns the agents newly
// declared down this round, sorted.
func (o *Orchestrator) HealthCheck() []string {
	o.mu.Lock()
	names := make([]string, 0, o.topo.Servers)
	for i := 0; i < o.topo.Servers; i++ {
		if name := agentName(i); !o.downAgents[name] {
			names = append(names, name)
		}
	}
	o.mu.Unlock()

	sink := o.platform.Obs()
	tr := sink.Tracer()
	var newlyDown []string
	for _, name := range names {
		span := tr.Begin(sink.Now(), tracing.SpanHeartbeat, "")
		_, err := o.ctrl.Ping(name)
		tr.End(sink.Now(), span, tracing.A("agent", name), tracing.A("ok", err == nil))
		o.mu.Lock()
		if err == nil {
			o.missed[name] = 0
			o.mu.Unlock()
			continue
		}
		o.missed[name]++
		tripped := o.missed[name] >= o.heartbeatK
		o.mu.Unlock()
		if tripped {
			newlyDown = append(newlyDown, name)
		}
	}
	sort.Strings(newlyDown)
	for _, name := range newlyDown {
		o.agentDown(name)
	}
	return newlyDown
}

// agentDown declares one agent dead and recovers its jobs: capacity leaves
// the scheduling pool, the agent's jobs fall back to their mirrored
// checkpoints as if suspended, and a reconciliation relaunches the feasible
// ones on the surviving agents. Idempotent.
func (o *Orchestrator) agentDown(name string) {
	o.mu.Lock()
	if o.downAgents[name] {
		o.mu.Unlock()
		return
	}
	o.downAgents[name] = true
	o.mu.Unlock()

	sink := o.platform.Obs()
	elapsed := sink.Timer()
	sink.EventNow(obs.KindAgentDown, "", tracing.A("agent", name))

	// Sever the control connection and the listener (a real monitor cannot
	// tell a hung process from a dead one; both are fenced off), then drop
	// the controller's routing state for the agent's jobs.
	o.ctrl.Disconnect(name)
	if stop, ok := o.listenStops[name]; ok {
		stop()
	}
	o.ctrl.DropJobs(name)

	// Shrink the scheduling pool. NodeDown re-checks every SLO guarantee
	// and re-plans; infeasible deadlines surface as counter-offers.
	if s := serverIndex(name); s >= 0 {
		if _, err := o.platform.NodeDown(s); err != nil {
			sink.IncError("node-down")
		}
	}

	// The dead agent's jobs restart from their mirrored checkpoints: park
	// the mirror exactly as a clean suspension would have, so the next
	// reconciliation resumes each job on a surviving agent.
	o.mu.Lock()
	lost := make([]string, 0)
	for id, home := range o.homes {
		if home == name {
			lost = append(lost, id)
		}
	}
	sort.Strings(lost)
	for _, id := range lost {
		delete(o.homes, id)
		o.workers[id] = 0
		if ck, ok := o.mirrors[id]; ok {
			o.parked[id] = ck
			o.restoring[id] = true
			sink.IncRestore()
			sink.EventNow(obs.KindRestore, id, tracing.A("step", ck.Step), tracing.A("from", name))
		} else {
			// No mirror yet (the agent died before the first snapshot):
			// the job restarts from scratch rather than being lost.
			delete(o.parked, id)
			sink.EventNow(obs.KindLost, id, tracing.A("from", name))
		}
	}
	o.mu.Unlock()

	if err := o.Reconcile(); err != nil {
		sink.IncError("recovery-reconcile")
	}
	sink.ObserveRecovery(elapsed())
}

// AgentUp reconnects a recovered agent at addr, returns its server's
// capacity to the pool, and reconciles so the scheduler can spread jobs
// back out.
func (o *Orchestrator) AgentUp(name, addr string) error {
	s := serverIndex(name)
	if s < 0 || s >= o.topo.Servers {
		return fmt.Errorf("cluster: unknown agent %q", name)
	}
	if err := o.ctrl.Connect(name, addr); err != nil {
		return err
	}
	o.mu.Lock()
	delete(o.downAgents, name)
	o.missed[name] = 0
	o.mu.Unlock()
	sink := o.platform.Obs()
	sink.EventNow(obs.KindAgentUp, "", tracing.A("agent", name))
	if err := o.platform.NodeUp(s); err != nil {
		return err
	}
	return o.Reconcile()
}

// StartHealth runs HealthCheck every interval until the returned stop
// function is called. Stop is idempotent and safe to call concurrently.
func (o *Orchestrator) StartHealth(interval time.Duration) func() {
	done := make(chan struct{})
	var once sync.Once
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				o.HealthCheck()
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}
