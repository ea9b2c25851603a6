package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"github.com/elasticflow/elasticflow/internal/core"
	"github.com/elasticflow/elasticflow/internal/obs"
	"github.com/elasticflow/elasticflow/internal/obs/tracing"
	"github.com/elasticflow/elasticflow/internal/serverless"
	"github.com/elasticflow/elasticflow/internal/sim"
	"github.com/elasticflow/elasticflow/internal/throughput"
	"github.com/elasticflow/elasticflow/internal/trace"
)

func init() {
	Registry["fidelity"] = Fidelity
}

// Fidelity reproduces the paper's simulator validation (§6.1: "Our simulator
// has very high fidelity, with an error rate of no more than 3% compared
// with the results in our real cluster experiments"). Lacking the authors'
// testbed, the live execution here is the serverless platform. Both legs
// turn decisions into placements, migrations and freeze charges through the
// same sched.Engine, so the experiment asserts rather than estimates: the
// live platform's clock is stepped to the simulator's own event instants
// (every arrival, completion and scheduler wake-up of the simulated run) and
// each job's sequence of place / rescale / migrate / complete transitions,
// with their GPU counts and blocks, must equal the simulator's. What is
// left to report is the completion-time difference the two clocks cause.
func Fidelity(o Options) (Table, error) {
	e := newEnv()
	tr := trace.Generate(trace.Config{
		Name: "fidelity", Jobs: o.scale(20, 8), ClusterGPUs: 16, Load: 1.0, Seed: 33,
	})
	// Profile for the cluster both legs run on, as the platform does.
	prof := throughput.NewProfiler(e.est, 8, tr.GPUs)
	jobs, err := tr.Jobs(prof, e.est)
	if err != nil {
		return Table{}, err
	}

	// Leg 1: the discrete-event simulator.
	simJobs, err := tr.Jobs(prof, e.est)
	if err != nil {
		return Table{}, err
	}
	simTracer := tracing.New(1)
	simRes, err := sim.Run(sim.Config{
		Topology:  topoFor(tr.GPUs),
		Scheduler: core.NewDefault(),
		Obs:       obs.New(obs.Options{Tracer: simTracer}),
	}, simJobs, tr.Name)
	if err != nil {
		return Table{}, err
	}
	simCompletion := make(map[string]float64)
	simDropped := make(map[string]bool)
	for _, jr := range simRes.Jobs {
		simCompletion[jr.ID] = jr.Completion
		simDropped[jr.ID] = jr.Dropped
	}

	// Leg 2: the live platform, its clock stepped through the simulator's
	// event instants (one timeline sample per event). The platform reads
	// time.Time, whose nanosecond quantum at one platform-second per wall
	// second would let a tick land a hair before the completion it is meant
	// to observe (and the job then completes one event late); at 1000 wall
	// seconds per platform-second the quantum is a picosecond, inside the
	// job.Done tolerance. Rounding up keeps the residue one-sided.
	const wallPerPlatformSec = 1e3
	clock := time.Unix(0, 0)
	liveTracer := tracing.New(1)
	platform, err := serverless.NewPlatform(serverless.Options{
		Topology:  topoFor(tr.GPUs),
		TimeScale: 1 / wallPerPlatformSec,
		Clock:     func() time.Time { return clock },
		Obs:       obs.New(obs.Options{Clock: func() time.Time { return clock }, Tracer: liveTracer}),
	})
	if err != nil {
		return Table{}, err
	}
	liveCompletion := make(map[string]float64) // trace job ID → completion
	liveDropped := make(map[string]bool)
	liveID := make(map[string]string) // trace ID → platform ID
	next := 0
	for _, sample := range simRes.Samples {
		clock = time.Unix(0, 0).Add(time.Duration(math.Ceil(sample.Time * wallPerPlatformSec * float64(time.Second))))
		now := platform.Now()
		for next < len(jobs) && jobs[next].SubmitTime <= sample.Time {
			j := jobs[next]
			next++
			st, err := platform.Submit(serverless.SubmitRequest{
				Model:           j.Model.Name,
				GlobalBatch:     j.GlobalBatch,
				Iterations:      j.TotalIters,
				DeadlineSeconds: j.Deadline - now,
			})
			if err != nil {
				return Table{}, fmt.Errorf("fidelity submit %s: %w", j.ID, err)
			}
			liveID[j.ID] = st.ID
			if st.State == "dropped" {
				liveDropped[j.ID] = true
			}
		}
		platform.Tick()
	}
	for _, j := range jobs {
		if st, err := platform.Get(liveID[j.ID]); err == nil && st.State == "completed" {
			liveCompletion[j.ID] = st.Completion
		}
	}
	for _, j := range jobs {
		simTrail, liveTrail := transitions(simTracer.Job(j.ID)), transitions(liveTracer.Job(liveID[j.ID]))
		if simTrail != liveTrail {
			return Table{}, fmt.Errorf("fidelity: job %s transitions diverge:\n  sim:  %s\n  live: %s", j.ID, simTrail, liveTrail)
		}
	}

	t := Table{
		ID:      "fidelity",
		Title:   fmt.Sprintf("Simulator vs live platform, %d jobs / %d GPUs (live clock stepped to the simulator's %d event instants)", len(jobs), tr.GPUs, len(simRes.Samples)),
		Columns: []string{"job", "sim completion (s)", "live completion (s)", "error"},
	}
	sumErr, cnt, agree, disagree := 0.0, 0, 0, 0
	for _, j := range jobs {
		id := j.ID
		if simDropped[id] != liveDropped[id] {
			disagree++
			t.Rows = append(t.Rows, []string{id, dropStr(simDropped[id]), dropStr(liveDropped[id]), "admission disagrees"})
			continue
		}
		agree++
		if simDropped[id] {
			t.Rows = append(t.Rows, []string{id, "dropped", "dropped", "—"})
			continue
		}
		s, okS := simCompletion[id]
		l, okL := liveCompletion[id]
		if !okS || !okL {
			t.Rows = append(t.Rows, []string{id, f2(s), f2(l), "incomplete"})
			continue
		}
		relErr := 0.0
		if s > 0 {
			relErr = math.Abs(l-s) / s
		}
		sumErr += relErr
		cnt++
		t.Rows = append(t.Rows, []string{id, f2(s), f2(l), fmt.Sprintf("%.2f%%", 100*relErr)})
	}
	if cnt > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf("mean completion-time error: %.2g%% over %d completed jobs (paper validates ≤3%%)", 100*sumErr/float64(cnt), cnt))
	}
	t.Notes = append(t.Notes, fmt.Sprintf("admission decisions agree on %d/%d jobs", agree, agree+disagree))
	t.Notes = append(t.Notes, fmt.Sprintf("place/rescale/migrate/complete transitions (GPU counts, blocks) identical for all %d jobs: both legs apply decisions through the same sched.Engine; the residual completion-time error is the live clock's quantum (1 ps of platform time here)", len(jobs)))
	return t, nil
}

// transitions renders the engine-emitted spans of one job's trail — place,
// rescale, migrate and the terminal complete/miss — as one comparable line.
func transitions(spans []tracing.Span) string {
	var b strings.Builder
	for _, s := range spans {
		switch s.Name {
		case tracing.SpanPlace, tracing.SpanRescale, tracing.SpanMigrate, tracing.SpanComplete, tracing.SpanMiss:
		default:
			continue
		}
		b.WriteString(" " + s.Name)
		for _, a := range s.Attrs {
			switch a.Key {
			case "gpus", "was", "from", "to", "rescales":
				b.WriteString(" " + a.Key + "=" + a.Value)
			}
		}
		b.WriteString(";")
	}
	return b.String()
}

func dropStr(d bool) string {
	if d {
		return "dropped"
	}
	return "admitted"
}
