package sched

import (
	"fmt"
	"sort"

	"github.com/elasticflow/elasticflow/internal/job"
	"github.com/elasticflow/elasticflow/internal/obs"
	"github.com/elasticflow/elasticflow/internal/obs/tracing"
	"github.com/elasticflow/elasticflow/internal/topology"
	"github.com/elasticflow/elasticflow/internal/transfer"
)

// Engine turns scheduling decisions into placements, migrations and freeze
// charges, retires finished jobs and moves failed servers in and out of the
// pool. The simulator and the live platform both drive this one
// implementation (DESIGN.md §5.1); neither writes job.FrozenUntil or
// job.Rescales, or places a block, itself. Not safe for concurrent use: the
// host serializes calls (the simulator's coordinator, the platform's mutex).
type Engine struct {
	Cluster *topology.Cluster
	// Sched is the policy Reschedule asks; server transitions invalidate
	// its memoized plans.
	Sched Scheduler
	// Costs prices the wire time of a checkpoint crossing a link.
	Costs transfer.CostModel
	// PlacementFree skips buddy placement (counts need not be powers of
	// two) and prices every rescale at the plain overhead.
	PlacementFree bool
	// NoOverheads disables freeze charging.
	NoOverheads bool
	// Obs receives timers and gauges (its counters and spans follow from
	// the events); nil disables them and event field formatting.
	Obs *obs.Obs
	// Emit is the engine's one window on its host: it publishes one event
	// at domain time now. The live platform stamps it with the journal
	// record being applied, tees it to obs and into the journal's trail hash,
	// in replay as when live; the simulator feeds its rescale/migration
	// tallies and obs. With Obs nil the engine formats no fields: the host
	// still counts kinds, but nothing reads the detail.
	Emit func(now float64, kind, jobID string, fields ...tracing.Attr)
}

// change is one job whose worker count a decision alters, with the block it
// held before the pass (Size 0: none).
type change struct {
	j    *job.Job
	gpus int
	from topology.Block
}

// Reschedule asks the scheduler for a decision at now, applies it, and
// returns the wake-up time the scheduler requested (0 = none).
func (e *Engine) Reschedule(now float64, active []*job.Job, g int) float64 {
	stop := e.Obs.Timer()
	dec := e.Sched.Schedule(now, active, g)
	e.Obs.ObserveDecision("allocate", stop())
	e.Apply(now, dec, active, g)
	return dec.Wake
}

// Apply makes the cluster and the active jobs match dec at time now. Every
// changed job releases its block first so growth has room; the new blocks are
// placed in (count descending, ID ascending) order — buddy-friendly, and
// independent of the order of active — and a bystander the allocator migrates
// is charged for the link it crosses; then each changed job is stamped and
// frozen for its own move. A decision exceeding g is a scheduler bug.
func (e *Engine) Apply(now float64, dec Decision, active []*job.Job, g int) {
	total := 0
	for _, n := range dec.Alloc {
		total += n
	}
	if total > g {
		panic(fmt.Sprintf("sched: scheduler %s overcommitted %d/%d GPUs", e.Sched.Name(), total, g))
	}
	var changes []change
	for _, j := range active {
		if n := dec.Alloc[j.ID]; n != j.GPUs {
			from, _ := e.Cluster.Placement(j.ID)
			changes = append(changes, change{j, n, from})
		}
	}
	if len(changes) == 0 {
		return
	}
	if !e.PlacementFree {
		e.place(now, changes, active)
	}
	for _, c := range changes {
		j := c.j
		if c.gpus <= 0 {
			j.GPUs, j.State = 0, job.Admitted
			continue
		}
		started := j.GPUs > 0 || j.DoneIters > 0
		if started {
			e.event(now, obs.KindResize, j.ID, "gpus", c.gpus, "was", j.GPUs)
		} else {
			e.event(now, obs.KindPlace, j.ID, "gpus", c.gpus)
		}
		j.GPUs, j.State = c.gpus, job.Running
		if started && !e.NoOverheads {
			e.freeze(now, j, e.moveCharge(c))
		}
	}
}

// place releases the changed jobs' blocks and allocates their new ones,
// reordering changes into placement order.
func (e *Engine) place(now float64, changes []change, active []*job.Job) {
	for _, c := range changes {
		if c.from.Size > 0 {
			must(e.Cluster.Release(c.j.ID))
		}
	}
	sort.Slice(changes, func(i, k int) bool {
		if changes[i].gpus != changes[k].gpus {
			return changes[i].gpus > changes[k].gpus
		}
		return changes[i].j.ID < changes[k].j.ID
	})
	for _, c := range changes {
		if c.gpus <= 0 {
			continue
		}
		_, migs, err := e.Cluster.AllocateWithMigration(c.j.ID, c.gpus)
		if err != nil {
			panic(fmt.Sprintf("sched: placement failed for %s (%d GPUs): %v", c.j.ID, c.gpus, err))
		}
		for _, m := range migs {
			e.event(now, obs.KindMigrate, m.JobID, "from", m.From, "to", m.To)
			// The bystander's trainer stops, its checkpoint crosses the
			// m.From→m.To link, and it restores: a charged rescale.
			if other := find(active, m.JobID); other != nil && !e.NoOverheads {
				e.freeze(now, other, other.MoveCharge(e.Costs, e.Cluster.Config(), m.From, m.To))
			}
		}
	}
}

// moveCharge prices the freeze a changed job's move costs: the in-place
// rescale overhead plus the checkpoint's wire time over the crossed link. A
// job resuming from preemption has no previous block — its bytes come from
// wherever it was parked, priced conservatively at the cross-rack tier
// (MoveOverheadSec). Placement-free runs model no links.
func (e *Engine) moveCharge(c change) float64 {
	switch {
	case e.PlacementFree:
		return c.j.RescaleOverheadSec
	case c.from.Size == 0:
		return c.j.MoveOverheadSec()
	}
	to, _ := e.Cluster.Placement(c.j.ID)
	return c.j.MoveCharge(e.Costs, e.Cluster.Config(), c.from, to)
}

// freeze charges j one rescale at now: no progress for charge seconds, and
// one unit of its SafetyRescales budget (the scheduler's next replan sees it
// via the remaining-margin rule). A freeze never shortens: a job already
// frozen past now+charge by an earlier, costlier move stays frozen until then.
func (e *Engine) freeze(now float64, j *job.Job, charge float64) {
	if until := now + charge; until > j.FrozenUntil {
		j.FrozenUntil = until
	}
	j.Rescales++
	e.event(now, obs.KindRescale, j.ID, "gpus", j.GPUs)
}

// Retire completes job j at now — which instant that is belongs to the host:
// the exact event time in the simulator, the observing tick live — releasing
// its block and emitting the complete event that closes its lifecycle. It
// reports whether the deadline was met; dropping j from active is the host's.
func (e *Engine) Retire(now float64, j *job.Job) bool {
	j.State, j.CompletionTime, j.GPUs = job.Completed, now, 0
	if _, ok := e.Cluster.Placement(j.ID); ok {
		must(e.Cluster.Release(j.ID))
	}
	met := j.MetDeadline()
	e.event(now, obs.KindComplete, j.ID, "met", met, "iters", j.TotalIters, "rescales", j.Rescales)
	if j.HasDeadline() {
		e.Obs.ObserveDeadline(now, met, obs.DeadlineBudgetRatio(j.SubmitTime, j.Deadline, now))
	}
	return met
}

// downReservation names the placement that holds a failed server's block out
// of the pool.
func downReservation(server int) string { return fmt.Sprintf("__down-server-%d__", server) }

// Evict takes a failed server out of the pool (§4.4): the jobs placed on it
// lose their workers — back to Admitted, to resume from their checkpoints at
// the next pass — and a reservation keeps the allocator off the block. It
// returns the evicted IDs, sorted. The capacity the next decision gets is the
// host's to account.
func (e *Engine) Evict(now float64, server int, active []*job.Job) ([]string, error) {
	block, err := e.Cluster.ServerBlock(server)
	if err != nil {
		return nil, err
	}
	e.event(now, obs.KindFailure, "", "server", server)
	Invalidate(e.Sched)
	if e.PlacementFree {
		return nil, nil
	}
	evicted := e.Cluster.JobsOn(block)
	for _, id := range evicted {
		if err := e.Cluster.Release(id); err != nil {
			return nil, err
		}
		if j := find(active, id); j != nil {
			j.GPUs, j.State = 0, job.Admitted
			e.event(now, obs.KindEvict, id, "server", server)
		}
	}
	return evicted, e.Cluster.Reserve(downReservation(server), block)
}

// Restore returns a recovered server's block to the pool.
func (e *Engine) Restore(now float64, server int) error {
	if !e.PlacementFree {
		if err := e.Cluster.Release(downReservation(server)); err != nil {
			return err
		}
	}
	e.event(now, obs.KindRecovery, "", "server", server)
	Invalidate(e.Sched)
	return nil
}

// event publishes kind with its key/value detail, formatting the values only
// for a host with a sink: a simulator run without Obs pays for no detail.
func (e *Engine) event(now float64, kind, jobID string, kv ...any) {
	if e.Obs == nil {
		e.Emit(now, kind, jobID)
		return
	}
	fields := make([]tracing.Attr, 0, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		fields = append(fields, tracing.A(kv[i].(string), kv[i+1]))
	}
	e.Emit(now, kind, jobID, fields...)
}

// Efficiency is job j's term of Eq. 8: its current throughput normalized by
// its single-GPU throughput. When the memory floor prevents a single-GPU
// measurement, the per-GPU throughput at the minimum feasible count
// approximates it. A free function so simulator shards can call it.
func Efficiency(j *job.Job) float64 {
	t1 := j.Curve.At(1)
	if t1 <= 0 {
		minW := j.Curve.MinWorkers()
		if minW <= 0 {
			return 0
		}
		t1 = j.Curve.At(minW) / float64(minW)
	}
	return j.Throughput(j.GPUs) / t1
}

func find(active []*job.Job, id string) *job.Job {
	for _, j := range active {
		if j.ID == id {
			return j
		}
	}
	return nil
}

// must panics on an allocator error only a bookkeeping bug can produce
// (releasing a block Placement just reported).
func must(err error) {
	if err != nil {
		panic(err)
	}
}
