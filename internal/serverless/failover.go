package serverless

import (
	"fmt"
	"sort"

	"github.com/elasticflow/elasticflow/internal/job"
	"github.com/elasticflow/elasticflow/internal/obs"
	"github.com/elasticflow/elasticflow/internal/obs/tracing"
)

// This file is the platform's §4.4 fault model on the live path. The server
// transition itself is the engine's (sched.Engine.Evict/Restore — the code
// the simulator's Failures run): a failed server's GPUs leave the
// schedulable pool (held by a reservation so the buddy allocator cannot
// place anything there) and its jobs are evicted back to Admitted and
// re-placed at the next scheduling pass. What is the platform's own: the
// down set and capacity, and that every admitted SLO job's guarantee is
// re-checked against the shrunken capacity — jobs whose deadlines became
// infeasible keep running demoted but are surfaced with a counter-offer
// (DeadlineAtRisk + EarliestFeasibleSec) instead of being silently broken.

// capLocked returns the schedulable GPU count: the cluster total minus the
// capacity of down servers. Every admission/scheduling decision uses it;
// the Eq. 8 efficiency gauge intentionally keeps the physical total.
func (p *Platform) capLocked() int {
	c := p.cluster.TotalGPUs() - p.downGPUs
	if c < 0 {
		return 0
	}
	return c
}

// NodeDown declares a server failed: its jobs are evicted (the orchestrator
// restarts them from mirrored checkpoints), its capacity leaves the pool,
// and admission guarantees are re-checked. Idempotent; returns the evicted
// job IDs, sorted.
func (p *Platform) NodeDown(server int) ([]string, error) {
	return p.setNode(server, true)
}

// NodeUp returns a failed server's capacity to the pool and re-checks
// guarantees (at-risk jobs may become feasible again). Idempotent.
func (p *Platform) NodeUp(server int) error {
	_, err := p.setNode(server, false)
	return err
}

// setNode journals and applies one server transition; a call that names no
// server or changes nothing is a read of the clock.
func (p *Platform) setNode(server int, down bool) ([]string, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.checkMutableLocked(); err != nil {
		return nil, err
	}
	if server < 0 || server >= p.cluster.Config().Servers {
		p.advanceLocked()
		return nil, fmt.Errorf("serverless: server %d out of range [0,%d)", server, p.cluster.Config().Servers)
	}
	if p.down[server] == down {
		p.advanceLocked()
		return nil, nil
	}
	o := &nodeOp{Server: server, down: down}
	err := p.mutateLocked(o)
	return o.evicted, err
}

// nodeOp is a server failure (down) or recovery; evicted lists the jobs a
// failure evicted.
type nodeOp struct {
	Server  int `json:"server"`
	down    bool
	evicted []string
}

func (o *nodeOp) kind() string {
	if o.down {
		return recNodeDown
	}
	return recNodeUp
}

func (o *nodeOp) body() any { return o }

// applyLocked performs the transition at time now. Idempotent on a server
// already in that state.
func (o *nodeOp) applyLocked(p *Platform, now float64) error {
	p.applyAdvanceLocked(now)
	if p.down[o.Server] == o.down {
		return nil
	}
	if o.down {
		evicted, err := p.eng.Evict(now, o.Server, p.active)
		if err != nil {
			return err
		}
		o.evicted = evicted
		p.down[o.Server] = true
		p.downGPUs += p.cluster.Config().GPUsPerServer
	} else {
		if err := p.eng.Restore(now, o.Server); err != nil {
			return err
		}
		delete(p.down, o.Server)
		p.downGPUs -= p.cluster.Config().GPUsPerServer
	}
	p.recheckGuaranteesLocked(now)
	p.rescheduleLocked(now)
	return nil
}

// recheckGuaranteesLocked re-runs the admission feasibility check over the
// admitted SLO jobs after a capacity change (§4.4): a job whose minimum
// satisfactory share no longer fits is marked deadline-at-risk with a
// counter-offer (the earliest deadline the shrunken cluster could still
// guarantee), and a previously at-risk job whose MSS fits again is cleared.
func (p *Platform) recheckGuaranteesLocked(now float64) {
	g := p.capLocked()
	mss := p.ef.MinimumSatisfactoryShare(now, p.active, g)
	for _, j := range p.active {
		if j.Class != job.SLO {
			continue
		}
		if a, ok := mss[j.ID]; ok && a.Satisfied {
			if _, wasAtRisk := p.infeasible[j.ID]; wasAtRisk {
				delete(p.infeasible, j.ID)
				p.eventLocked(now, obs.KindInfeasible, j.ID, tracing.A("cleared", true))
			}
			continue
		}
		if _, already := p.infeasible[j.ID]; already {
			continue
		}
		offer := 0.0
		others := make([]*job.Job, 0, len(p.active))
		for _, o := range p.active {
			if o.ID != j.ID {
				others = append(others, o)
			}
		}
		if dl, ok := p.ef.EarliestDeadline(now, j, others, g); ok {
			offer = dl - now
		}
		p.infeasible[j.ID] = offer
		p.eventLocked(now, obs.KindInfeasible, j.ID,
			tracing.A("deadline", j.Deadline), tracing.A("earliest_feasible_sec", offer))
	}
}

// DownServers returns the currently failed server indices, sorted.
func (p *Platform) DownServers() []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]int, 0, len(p.down))
	for s := range p.down {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}
