package cluster

import (
	"sort"

	"github.com/elasticflow/elasticflow/internal/agent"
	"github.com/elasticflow/elasticflow/internal/obs"
	"github.com/elasticflow/elasticflow/internal/obs/tracing"
	"github.com/elasticflow/elasticflow/internal/serverless"
)

// This file is the orchestrator's crash-restart path (DESIGN.md §11): the
// front door recovers the shard from its journal + snapshot store, and the
// agent side is reconciled against reality — the agents are separate
// processes, so a controller crash leaves their trainers running.
// NewRecovered re-dials the survivors, adopts the jobs still training on
// them, and routes every agent that vanished during the downtime through the
// same agentDown path the health monitor uses (§4.4), so the two failure
// styles converge on one recovery mechanism.

// NewRecovered rebuilds an orchestrator after a controller crash over shard,
// a front-door shard the front door recovered from its state directory
// (snapshot restore + journal replay — re-admission never revokes a
// journaled admission). addrs maps agent names to dial addresses (the
// Controller.Addrs() of the previous incarnation); tasks re-registers the
// concrete training task per job — the spec table is controller memory and
// died with it. An active job with no task entry stays admitted on the
// shard but cannot be relaunched until one is registered.
//
// Each agent gets a single Ping probe: reachable agents have their jobs
// adopted (Status probe per job, then a checkpoint mirror), and unreachable
// or unlisted ones are declared vanished through the health monitor's
// agentDown path — capacity leaves the pool via NodeDown and their jobs
// restart from mirrors where available. Servers the journal already recorded
// as down stay fenced until AgentUp. Returns the vanished agent names,
// sorted.
func NewRecovered(shard *serverless.Platform, opts Options, addrs map[string]string, tasks map[string]agent.TaskSpec) (*Orchestrator, []string) {
	o := bind(shard, opts)
	// Servers the journal recorded as down before the crash stay fenced:
	// their capacity is already out of the pool, and AgentUp is the one
	// path that returns it.
	for _, s := range shard.DownServers() {
		o.downAgents[agentName(s)] = true
	}
	sink := shard.Obs()

	// One ping sweep decides which agents survived the downtime.
	var vanished []string
	for i := 0; i < o.topo.Servers; i++ {
		name := agentName(i)
		if o.downAgents[name] {
			continue
		}
		if addr, ok := addrs[name]; ok {
			if err := o.ctrl.Connect(name, addr); err == nil {
				if _, err := o.ctrl.Ping(name); err == nil {
					continue
				}
			}
		}
		vanished = append(vanished, name)
	}
	sort.Strings(vanished)

	o.mu.Lock()
	for id, task := range tasks {
		o.specs[id] = task
	}
	o.adoptLocked()
	o.mu.Unlock()

	// The vanished agents go through the exact path a heartbeat trip takes:
	// fence, NodeDown, restart their jobs from mirrors (none yet on a fresh
	// recovery — they relaunch from scratch), reconcile.
	for _, name := range vanished {
		o.agentDown(name)
	}
	if err := o.Reconcile(); err != nil {
		sink.IncError("recovery-reconcile")
	}
	return o, vanished
}

// adoptLocked probes the connected agents for each registered job still
// active on the recovered shard and adopts the trainers found live: the
// controller re-learns the route, the orchestrator re-learns worker counts,
// and a fresh checkpoint mirror is taken — over the data plane, like every
// mirror — so a follow-up agent death does not restart the job from scratch.
func (o *Orchestrator) adoptLocked() {
	sink := o.platform.Obs()
	desired := o.platform.Allocations()
	ids := make([]string, 0, len(o.specs))
	for id := range o.specs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	connected := o.ctrl.Agents()
	for _, id := range ids {
		if _, active := desired[id]; !active {
			continue
		}
		// Probe the placement-implied agent first — on an undisturbed
		// cluster that is a one-shot hit — then the rest.
		probes := make([]string, 0, len(connected)+1)
		probes = append(probes, o.agentForLocked(id))
		for _, name := range connected {
			if name != probes[0] {
				probes = append(probes, name)
			}
		}
		for _, name := range probes {
			st, ok, err := o.ctrl.Adopt(name, id, o.specs[id])
			if err != nil || !ok {
				continue
			}
			o.workers[id] = st.Workers
			o.homes[id] = name
			sink.EventNow(obs.KindRestore, id,
				tracing.A("op", "adopt"), tracing.A("agent", name), tracing.A("step", st.Step))
			o.mirrorOneLocked(id)
			break
		}
	}
}
