package experiments

import (
	"fmt"
	"time"

	"github.com/elasticflow/elasticflow/internal/agent"
	"github.com/elasticflow/elasticflow/internal/faults"
	"github.com/elasticflow/elasticflow/internal/obs"
)

func init() {
	Registry["transfer"] = TransferBench
}

// TransferBench measures the checkpoint data plane (DESIGN.md §14): chunked,
// CRC-verified checkpoint movement over real loopback RPC connections. The
// clean arms report fetch and full-migration throughput; the faulty arm
// drives one fetch through a drop + corrupt schedule and reports the resume
// and retry work the transfer did to still complete byte-identical. Wall
// time comes from the injected Options.Clock — with none, the wall and rate
// columns read zero but the correctness checks still run.
func TransferBench(o Options) (Table, error) {
	reps := o.scale(64, 4)
	// ~128 KiB of model state: large enough to span many chunks, small
	// enough that Quick runs stay fast.
	spec := agent.TaskSpec{
		Dim:          16383,
		DataSeed:     11,
		DataN:        32,
		Noise:        0.01,
		GlobalBatch:  16,
		LearningRate: 0.1,
		InitSeed:     5,
		TotalIters:   1 << 20,
	}
	noSleep := func(time.Duration) {}

	liveAgent := func(name string) (string, func(), error) {
		a := agent.NewAgent(name)
		return a.Listen("127.0.0.1:0")
	}
	addrA, stopA, err := liveAgent("A")
	if err != nil {
		return Table{}, err
	}
	defer stopA()
	addrB, stopB, err := liveAgent("B")
	if err != nil {
		return Table{}, err
	}
	defer stopB()

	c := agent.NewControllerWith(agent.ControllerOptions{Sleep: noSleep})
	defer c.Close()
	if err := c.Connect("A", addrA); err != nil {
		return Table{}, err
	}
	if err := c.Connect("B", addrB); err != nil {
		return Table{}, err
	}
	if _, err := c.Launch("j", spec, "A", 1); err != nil {
		return Table{}, err
	}
	if _, err := c.Step("j", 1); err != nil {
		return Table{}, err
	}

	// Clean fetch: reps chunked snapshots over the wire.
	var fetchBytes int64
	start := o.now()
	for i := 0; i < reps; i++ {
		_, stats, err := c.FetchCheckpoint("j", false)
		if err != nil {
			return Table{}, fmt.Errorf("clean fetch %d: %w", i, err)
		}
		fetchBytes += stats.Bytes
	}
	fetchWall := o.now().Sub(start).Seconds()

	// Clean migration: each rep is a full round trip — detach, chunked
	// fetch from the source, chunked push to the target, staged launch.
	size := fetchBytes / int64(reps)
	targets := [2]string{"B", "A"}
	start = o.now()
	for i := 0; i < reps; i++ {
		if _, err := c.Migrate("j", targets[i%2], 1); err != nil {
			return Table{}, fmt.Errorf("migration %d: %w", i, err)
		}
	}
	migWall := o.now().Sub(start).Seconds()
	migBytes := 2 * size * int64(reps)

	// Faulty fetch: a dropped stream and a tampered chunk on one small-chunk
	// fetch. The transfer must resume from the last verified chunk, count
	// the corruption, and still complete.
	inj := faults.New(1, []faults.Rule{
		{Kind: faults.Drop, Op: "ReadChunk", At: 3},
		{Kind: faults.Corrupt, Op: "ReadChunk", At: 7},
	}).WithObs(obs.NewDefault())
	fc := agent.NewControllerWith(agent.ControllerOptions{
		Dial:      inj.WrapDial(agent.DefaultDial),
		Sleep:     noSleep,
		ChunkSize: 4096,
	})
	defer fc.Close()
	if err := fc.Connect("A", addrA); err != nil {
		return Table{}, err
	}
	if err := fc.Connect("B", addrB); err != nil {
		return Table{}, err
	}
	if _, err := fc.Launch("k", spec, "A", 1); err != nil {
		return Table{}, err
	}
	start = o.now()
	_, fstats, err := fc.FetchCheckpoint("k", false)
	if err != nil {
		return Table{}, fmt.Errorf("faulty fetch did not recover: %w", err)
	}
	faultWall := o.now().Sub(start).Seconds()
	if fstats.Resumes == 0 || fstats.Corruptions == 0 {
		return Table{}, fmt.Errorf("fault schedule did not exercise the transfer: %+v", fstats)
	}

	mbps := func(bytes int64, wall float64) float64 {
		if wall <= 0 {
			return 0
		}
		return float64(bytes) / 1e6 / wall
	}
	t := Table{
		ID:      "transfer",
		Title:   "Checkpoint data plane: chunked CRC-verified movement over loopback RPC (§14)",
		Columns: []string{"phase", "ops", "bytes", "wall (s)", "MB/s"},
		Rows: [][]string{
			{"fetch (clean)", fmt.Sprintf("%d", reps), fmt.Sprintf("%d", fetchBytes), f3(fetchWall), f2(mbps(fetchBytes, fetchWall))},
			{"migrate (fetch+push)", fmt.Sprintf("%d", reps), fmt.Sprintf("%d", migBytes), f3(migWall), f2(mbps(migBytes, migWall))},
			{"fetch (drop+corrupt)", "1", fmt.Sprintf("%d", fstats.Bytes), f3(faultWall), f2(mbps(fstats.Bytes, faultWall))},
		},
		Notes: []string{
			fmt.Sprintf("checkpoint size %d bytes; faulty arm: %d resume(s), %d corruption(s), %d chunk retries — completed byte-verified",
				size, fstats.Resumes, fstats.Corruptions, fstats.Retries),
			"migration = detach + chunked fetch + chunked push + staged launch; both legs CRC-framed per chunk",
		},
	}
	return t, nil
}
