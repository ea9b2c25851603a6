// Parallel simulator core: the engine's per-event O(active) scans — progress
// accrual, completion prediction, done detection and the Eq. 8 efficiency
// sweep — fan out across shard goroutines, while everything that orders the
// decision stream (the scheduler, admission, placement, event and span
// emission) stays on the coordinator at the scheduling-epoch barrier. The
// merged view the scheduler sees is the same canonical admission-ordered
// slice the serial loop maintains, so the decision stream is byte-identical
// to the serial engine at every worker count (test- and fuzz-enforced; see
// DESIGN.md §15).
//
// The concurrency shape follows the per-goroutine control-block + barrier
// idiom: each shard owns a control block (its stride of the active set plus
// a cache-line-padded result slot) and a long-lived goroutine that spins on
// an epoch counter. The coordinator publishes an operation, releases the
// barrier by bumping the epoch, works one stride itself, and waits for every
// shard to arrive before it reads any result — a synchronous fork/join per
// operation, so shards never observe a mutation in flight.
package sim

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/elasticflow/elasticflow/internal/job"
	"github.com/elasticflow/elasticflow/internal/sched"
)

// opKind selects the operation a barrier release fans out.
type opKind uint32

const (
	opAdvance   opKind = iota + 1 // j.Advance + GPU-second accrual
	opFinishMin                   // min predicted completion time per shard
	opDoneScan                    // done flags per active index
	opEffScan                     // Eq. 8 per-job efficiency per active index
)

// shardCB is one shard's control block. The result slot is padded to its own
// cache line so shards publishing results do not false-share.
type shardCB struct {
	minFinish float64
	_         [56]byte
}

// pool owns the shard goroutines of one parallel simulation run.
//
// Synchronization contract: the coordinator writes the op fields, then
// releases the shards with epoch.Add (atomic release); shards observe the
// epoch (acquire), run their stride, publish results, and arrive with
// arrived.Add. The coordinator reads no result before every shard arrived,
// and shards read no op state while the barrier is closed, so none of the
// plain fields below need their own locks.
type pool struct {
	n     int                   // shard count (Config.Workers)
	stats map[string]*JobResult // engine.stats; entries only added between ops

	// Per-op inputs, written by the coordinator before the release.
	op      opKind
	jobs    []*job.Job // canonical active slice for this op
	now, dt float64

	// Per-op outputs.
	cbs  []shardCB
	done []bool    // done flags, indexed like jobs
	eff  []float64 // per-job Eq. 8 efficiency, indexed like jobs

	epoch   atomic.Uint64
	arrived atomic.Int64
	abort   atomic.Bool
	wg      sync.WaitGroup

	// Parking (futex-style): a shard that spins parkSpins times without
	// seeing a new epoch blocks on parkCond instead of burning its core —
	// long scheduler epochs and idle tails otherwise pin every shard at
	// 100%. parked counts shards inside park(), so the release path only
	// touches the lock when someone is actually asleep.
	parked   atomic.Int64
	parkMu   sync.Mutex
	parkCond *sync.Cond
}

// parkSpins is how many fruitless epoch checks a shard tolerates before
// parking. Spinning covers the common case (the coordinator redispatches
// within microseconds); parking covers the long gaps between events.
const parkSpins = 256

// newPool starts n−1 shard goroutines (the coordinator works the n-th stride
// inline during dispatch).
func newPool(n int, stats map[string]*JobResult) *pool {
	p := &pool{n: n, stats: stats, cbs: make([]shardCB, n)}
	p.parkCond = sync.NewCond(&p.parkMu)
	p.wg.Add(n - 1)
	for s := 1; s < n; s++ {
		go p.shardLoop(s)
	}
	return p
}

// stop shuts the shards down. It must only be called with the barrier closed
// (no dispatch in flight) — which Run guarantees by deferring it — so a shard
// is always either spinning on the epoch or already gone, and the abort flag
// alone releases it; a wedged coordinator can therefore never strand a shard
// inside the barrier, and a runaway simulation (MaxSimSec) reaps its workers
// on the error path like any other return.
func (p *pool) stop() {
	p.abort.Store(true)
	p.parkMu.Lock()
	p.parkCond.Broadcast()
	p.parkMu.Unlock()
	p.wg.Wait()
}

// shardLoop is the control loop of shard s: wait for a release, run the
// published op over the shard's stride, arrive, repeat. The spin yields the
// processor each iteration so GOMAXPROCS=1 runs make progress; after
// parkSpins fruitless checks the shard parks until the next release.
func (p *pool) shardLoop(s int) {
	defer p.wg.Done()
	seen := uint64(0)
	spins := 0
	for {
		e := p.epoch.Load()
		if e == seen {
			if p.abort.Load() {
				return
			}
			spins++
			if spins < parkSpins {
				runtime.Gosched()
				continue
			}
			p.park(seen)
			spins = 0
			continue
		}
		seen = e
		spins = 0
		p.runShard(s)
		p.arrived.Add(1)
	}
}

// park blocks the shard until the epoch moves past seen or the pool aborts.
// Lost-wakeup safety is Dekker-style over seq-cst atomics: the shard raises
// parked BEFORE re-checking the epoch, and the coordinator bumps the epoch
// BEFORE reading parked — so either the shard observes the new epoch and
// skips the wait, or the coordinator observes parked>0 and broadcasts. The
// re-check runs under parkMu, so a broadcast cannot slip between the check
// and the Wait.
func (p *pool) park(seen uint64) {
	p.parked.Add(1)
	p.parkMu.Lock()
	for p.epoch.Load() == seen && !p.abort.Load() {
		p.parkCond.Wait()
	}
	p.parkMu.Unlock()
	p.parked.Add(-1)
}

// dispatch publishes op over the canonical active slice, releases the
// barrier, works stride 0 itself, and joins.
func (p *pool) dispatch(op opKind, jobs []*job.Job, now, dt float64) {
	p.op, p.jobs, p.now, p.dt = op, jobs, now, dt
	p.arrived.Store(0)
	p.epoch.Add(1)
	if p.parked.Load() > 0 {
		p.parkMu.Lock()
		p.parkCond.Broadcast()
		p.parkMu.Unlock()
	}
	p.runShard(0)
	for p.arrived.Load() < int64(p.n-1) {
		runtime.Gosched()
	}
}

// runShard executes the current op over shard s's stride (indices s, s+n,
// s+2n, … of the canonical slice). Strides write disjoint jobs, disjoint
// stats entries and disjoint scratch indices, so shards never contend.
func (p *pool) runShard(s int) {
	jobs := p.jobs
	switch p.op {
	case opAdvance:
		now, dt := p.now, p.dt
		for i := s; i < len(jobs); i += p.n {
			j := jobs[i]
			j.Advance(now, dt)
			if j.GPUs > 0 {
				p.stats[j.ID].GPUSeconds += float64(j.GPUs) * dt
			}
		}
	case opFinishMin:
		now := p.now
		min := math.Inf(1)
		for i := s; i < len(jobs); i += p.n {
			if f := jobs[i].PredictFinish(now); f < min {
				min = f
			}
		}
		p.cbs[s].minFinish = min
	case opDoneScan:
		for i := s; i < len(jobs); i += p.n {
			p.done[i] = jobs[i].Done()
		}
	case opEffScan:
		for i := s; i < len(jobs); i += p.n {
			if jobs[i].GPUs > 0 {
				p.eff[i] = sched.Efficiency(jobs[i])
			}
		}
	}
}

// scratch returns b resized to n (reusing capacity across events).
func scratchBools(b []bool, n int) []bool {
	if cap(b) < n {
		return make([]bool, n)
	}
	return b[:n]
}

func scratchFloats(f []float64, n int) []float64 {
	if cap(f) < n {
		return make([]float64, n)
	}
	return f[:n]
}

// advanceAll accrues dt seconds on every active job — the parallel twin of
// the serial advance loop. Each job's arithmetic is bit-identical to the
// serial path because the per-job computation is untouched; only the loop is
// partitioned.
func (e *engine) advanceAll(dt float64) {
	if dt <= 0 {
		return
	}
	if e.pool == nil || len(e.active) == 0 {
		for _, j := range e.active {
			j.Advance(e.now, dt)
			if j.GPUs > 0 {
				e.stats[j.ID].GPUSeconds += float64(j.GPUs) * dt
			}
		}
		return
	}
	e.pool.dispatch(opAdvance, e.active, e.now, dt)
}

// minFinish returns the earliest predicted completion over the active set
// (+Inf when none). Merge-order rule: only the minimum *value* feeds the
// event selection, and the minimum of per-shard minima equals the serial
// scan's minimum regardless of partitioning, so the chosen event time is
// identical at every worker count.
func (e *engine) minFinish() float64 {
	if e.pool == nil || len(e.active) == 0 {
		min := math.Inf(1)
		for _, j := range e.active {
			if f := j.PredictFinish(e.now); f < min {
				min = f
			}
		}
		return min
	}
	e.pool.dispatch(opFinishMin, e.active, e.now, 0)
	min := math.Inf(1)
	for s := 0; s < e.pool.n; s++ {
		if m := e.pool.cbs[s].minFinish; m < min {
			min = m
		}
	}
	return min
}

// doneFlags fills the per-index done scratch for the current active slice.
// Retirement itself stays on the coordinator, in canonical order.
func (e *engine) doneFlags() []bool {
	if e.pool == nil {
		e.doneScratch = scratchBools(e.doneScratch, len(e.active))
		for i, j := range e.active {
			e.doneScratch[i] = j.Done()
		}
		return e.doneScratch
	}
	e.pool.done = scratchBools(e.pool.done, len(e.active))
	e.pool.dispatch(opDoneScan, e.active, e.now, 0)
	return e.pool.done
}

// effValues fills the per-index Eq. 8 efficiency scratch for jobs holding
// GPUs. The coordinator folds the values in canonical order (sample), so the
// floating-point sum is bit-identical to the serial loop's.
func (e *engine) effValues() []float64 {
	if e.pool == nil {
		e.effScratch = scratchFloats(e.effScratch, len(e.active))
		for i, j := range e.active {
			if j.GPUs > 0 {
				e.effScratch[i] = sched.Efficiency(j)
			}
		}
		return e.effScratch
	}
	e.pool.eff = scratchFloats(e.pool.eff, len(e.active))
	e.pool.dispatch(opEffScan, e.active, e.now, 0)
	return e.pool.eff
}
