package sim

import (
	"fmt"
	"testing"

	"github.com/elasticflow/elasticflow/internal/core"
	"github.com/elasticflow/elasticflow/internal/obs"
	"github.com/elasticflow/elasticflow/internal/obs/tracing"
	"github.com/elasticflow/elasticflow/internal/topology"
)

// FuzzParallelSimEquivalence is the adversarial arm of the parallel-engine
// oracle: arbitrary seeded workloads, topologies, failure windows and shard
// counts must never produce a Result, span or event trail that differs by one byte
// from the serial engine's. Any divergence is a merge-order or data-race bug
// in the sharded core, not noise — the engines share every per-job formula.
func FuzzParallelSimEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(3), uint8(1), false)
	f.Add(int64(11), uint8(80), uint8(8), uint8(3), true)
	f.Add(int64(42), uint8(2), uint8(2), uint8(0), false)
	f.Add(int64(-7), uint8(200), uint8(5), uint8(2), true)
	f.Fuzz(func(t *testing.T, seed int64, nJobs, workers, servers uint8, withFailure bool) {
		n := int(nJobs)%120 + 2
		w := int(workers)%8 + 2
		srv := 1 << (int(servers) % 3) // 1, 2 or 4 servers (buddy topology wants powers of two)
		topo := topology.Config{Servers: srv, GPUsPerServer: 4}
		var failures []Failure
		if withFailure {
			// Derive the window from the seed so the corpus explores both
			// mid-run and post-drain failures.
			start := float64(uint64(seed)%700) + 1
			failures = []Failure{{Server: int(uint64(seed) % uint64(srv)), StartSec: start, DurationSec: 200}}
		}
		run := func(wk int) (Result, []tracing.Span, []obs.Event) {
			tr := tracing.New(7)
			o := obs.New(obs.Options{RingSize: 1 << 20, Tracer: tr})
			ef := core.New(core.Options{SlotSec: 1, PowerOfTwo: true}).WithObs(o)
			res, err := Run(Config{
				Topology:  topo,
				Scheduler: ef,
				SampleSec: 50,
				Failures:  failures,
				Obs:       o,
				Workers:   wk,
			}, randomWorkload(seed, n), "fuzz")
			if err != nil {
				t.Fatal(err)
			}
			return res, tr.Spans(), o.Bus.Since(0)
		}
		serialRes, serialSpans, serialTrail := run(0)
		parRes, parSpans, parTrail := run(w)
		if got, want := fmt.Sprintf("%+v", parRes), fmt.Sprintf("%+v", serialRes); got != want {
			t.Errorf("Result diverged at %d workers (seed=%d jobs=%d servers=%d fail=%v):\nserial:   %s\nparallel: %s",
				w, seed, n, srv, withFailure, want, got)
		}
		if got, want := fmt.Sprintf("%+v", parSpans), fmt.Sprintf("%+v", serialSpans); got != want {
			t.Errorf("span trail diverged at %d workers (seed=%d jobs=%d servers=%d fail=%v)", w, seed, n, srv, withFailure)
		}
		if got, want := fmt.Sprintf("%+v", parTrail), fmt.Sprintf("%+v", serialTrail); got != want {
			t.Errorf("event trail diverged at %d workers (seed=%d jobs=%d servers=%d fail=%v)", w, seed, n, srv, withFailure)
		}
	})
}
