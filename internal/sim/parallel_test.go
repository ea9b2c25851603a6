package sim

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"github.com/elasticflow/elasticflow/internal/core"
	"github.com/elasticflow/elasticflow/internal/job"
	"github.com/elasticflow/elasticflow/internal/obs"
	"github.com/elasticflow/elasticflow/internal/obs/tracing"
	"github.com/elasticflow/elasticflow/internal/sched"
	"github.com/elasticflow/elasticflow/internal/topology"
)

// randomWorkload builds a seeded workload big enough that every shard of an
// 8-way run owns several jobs: mixed deadlines, rescale overheads and a
// best-effort share, all derived from one explicit rand source.
func randomWorkload(seed int64, n int) []*job.Job {
	rng := rand.New(rand.NewSource(seed))
	jobs := make([]*job.Job, 0, n)
	for i := 0; i < n; i++ {
		iters := 50 + rng.Float64()*400
		submit := rng.Float64() * 500
		j := simpleJob(fmt.Sprintf("r%03d", i), iters, submit, 0)
		// Tightness relative to the single-GPU duration (tput 1).
		j.Deadline = submit + (0.6+rng.Float64()*2.4)*iters
		j.RescaleOverheadSec = rng.Float64() * 5
		if rng.Intn(5) == 0 {
			j.Class = job.BestEffort
			j.Deadline = math.Inf(1)
		}
		jobs = append(jobs, j)
	}
	return jobs
}

// oracleRun replays the seeded workload under the full observability stack
// at the given worker count and returns the Result plus the span and event
// trails — everything the golden byte-identity oracles compare.
func oracleRun(t *testing.T, workers int, withFailures bool) (Result, []tracing.Span, string) {
	t.Helper()
	var failures []Failure
	if withFailures {
		failures = []Failure{{Server: 1, StartSec: 250, DurationSec: 350}}
	}
	tr := tracing.New(7)
	o := obs.New(obs.Options{RingSize: 1 << 20, Tracer: tr})
	ef := core.New(core.Options{SlotSec: 1, PowerOfTwo: true}).WithObs(o)
	res, err := Run(Config{
		Topology:  topology.Config{Servers: 4, GPUsPerServer: 4},
		Scheduler: ef,
		SampleSec: 40,
		Failures:  failures,
		Obs:       o,
		Workers:   workers,
	}, randomWorkload(11, 80), "parallel-golden")
	if err != nil {
		t.Fatal(err)
	}
	return res, tr.Spans(), trailJSON(t, o)
}

// mustJSON renders the span trail; resultBytes renders the Result with %+v
// because best-effort jobs legitimately carry +Inf deadlines, which
// encoding/json refuses. Both renderings are byte-comparable.
func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func resultBytes(r Result) string { return fmt.Sprintf("%+v", r) }

// TestParallelWorkerEquivalence re-runs the golden determinism, span-trail
// and failure-replay oracles at Workers ∈ {1, 2, 8}: each must produce a
// Result and span trail byte-identical to the serial engine's.
func TestParallelWorkerEquivalence(t *testing.T) {
	for _, withFailures := range []bool{false, true} {
		name := "steady"
		if withFailures {
			name = "failure-replay"
		}
		t.Run(name, func(t *testing.T) {
			serialRes, serialSpans, wantTrail := oracleRun(t, 0, withFailures)
			wantRes, wantSpans := resultBytes(serialRes), mustJSON(t, serialSpans)
			if len(serialSpans) == 0 {
				t.Fatal("serial oracle recorded no spans")
			}
			for _, w := range []int{1, 2, 8} {
				t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
					res, spans, trail := oracleRun(t, w, withFailures)
					if got := resultBytes(res); got != wantRes {
						t.Errorf("Result differs from serial at %d workers:\nserial:   %s\nparallel: %s", w, wantRes, got)
					}
					if got := mustJSON(t, spans); got != wantSpans {
						t.Errorf("span trail differs from serial at %d workers", w)
					}
					if trail != wantTrail {
						t.Errorf("event trail differs from serial at %d workers", w)
					}
				})
			}
		})
	}
}

// TestParallelShardCountInvariance sweeps every shard count 2..9: changing
// how the active set is partitioned must never change a single Result byte.
func TestParallelShardCountInvariance(t *testing.T) {
	serialRes, serialSpans, serialTrail := oracleRun(t, 0, true)
	want := resultBytes(serialRes) + mustJSON(t, serialSpans) + serialTrail
	for w := 2; w <= 9; w++ {
		res, spans, trail := oracleRun(t, w, true)
		if got := resultBytes(res) + mustJSON(t, spans) + trail; got != want {
			t.Errorf("shard count %d changed the Result/span bytes", w)
		}
	}
}

// TestParallelGOMAXPROCS1 pins the runtime to one OS thread: with no real
// parallelism available the shard goroutines must still make progress
// (the barrier spin yields) and still produce serial-identical bytes.
func TestParallelGOMAXPROCS1(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	serialRes, serialSpans, serialTrail := oracleRun(t, 0, true)
	res, spans, trail := oracleRun(t, 8, true)
	if resultBytes(res) != resultBytes(serialRes) || trail != serialTrail {
		t.Error("Result or event trail differs from serial at 8 workers under GOMAXPROCS=1")
	}
	if mustJSON(t, spans) != mustJSON(t, serialSpans) {
		t.Error("span trail differs from serial at 8 workers under GOMAXPROCS=1")
	}
}

// wakeOnly admits everything, allocates nothing, and asks to be woken again
// 50 simulated seconds later — a scheduler that marches the clock forever
// without finishing a job, the shape of a runaway simulation.
type wakeOnly struct{}

func (wakeOnly) Name() string                                  { return "wake-only" }
func (wakeOnly) Admit(float64, *job.Job, []*job.Job, int) bool { return true }
func (wakeOnly) Schedule(now float64, _ []*job.Job, _ int) sched.Decision {
	return sched.Decision{Alloc: map[string]int{}, Wake: now + 50}
}

// TestMaxSimSecAbortsParallelRun is the shard-aware abort regression test:
// a runaway parallel simulation must return the MaxSimSec error (not hang at
// the barrier) and reap every shard goroutine on the way out.
func TestMaxSimSecAbortsParallelRun(t *testing.T) {
	before := runtime.NumGoroutine()
	_, err := Run(Config{
		Topology:  smallTopology(),
		Scheduler: wakeOnly{},
		MaxSimSec: 5000,
		Workers:   8,
	}, []*job.Job{simpleJob("a", 100, 0, 1e9)}, "runaway")
	if err == nil {
		t.Fatal("runaway parallel simulation did not abort")
	}
	// The deferred pool.stop ran before Run returned; give the reaped
	// goroutines bounded scheduler turns to unwind, without wall clocks.
	for i := 0; i < 1_000_000 && runtime.NumGoroutine() > before; i++ {
		runtime.Gosched()
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("shard goroutines leaked after abort: %d before Run, %d after", before, after)
	}
}

// TestParallelSerialPathUnchanged guards the refactor seam: Workers 0 and 1
// must both take the serial engine (no pool), and produce identical bytes.
func TestParallelSerialPathUnchanged(t *testing.T) {
	res0, _, trail0 := oracleRun(t, 0, false)
	res1, _, trail1 := oracleRun(t, 1, false)
	if resultBytes(res0) != resultBytes(res1) || trail0 != trail1 {
		t.Error("Workers=1 differs from Workers=0")
	}
}
