package experiments

import (
	"bytes"
	"fmt"
	"os"

	"github.com/elasticflow/elasticflow/internal/store"
)

func init() {
	Registry["store"] = StoreBench
}

// storeBody is a representative journal payload: roughly the size and shape
// of a serverless submit record.
type storeBody struct {
	Job        string  `json:"job"`
	Model      string  `json:"model"`
	Batch      int     `json:"batch"`
	Iterations float64 `json:"iterations"`
	Deadline   float64 `json:"deadline"`
}

// StoreBench measures the durability layer (DESIGN.md §11): journal append
// throughput (non-durable and fsynced), snapshot cost, and cold recovery
// latency over the resulting journal tail. Wall time comes from the injected
// Options.Clock — with none, the wall and rate columns read zero but the
// correctness checks still run.
func StoreBench(o Options) (Table, error) {
	n := o.scale(50000, 2000)
	durableN := o.scale(512, 32)

	dir, err := os.MkdirTemp("", "efstore-bench-")
	if err != nil {
		return Table{}, err
	}
	defer func() {
		if err := os.RemoveAll(dir); err != nil {
			fmt.Fprintf(os.Stderr, "store experiment: cleaning %s: %v\n", dir, err)
		}
	}()

	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return Table{}, err
	}
	// A snapshot first, so recovery exercises the full path: restore the
	// snapshot, then replay every appended record.
	snap := bytes.Repeat([]byte(`{"jobs":"x"}`), 4096) // ~48 KiB of state
	if err := st.Snapshot(snap); err != nil {
		return Table{}, err
	}

	body := storeBody{Job: "job-0001", Model: "resnet50", Batch: 128, Iterations: 50000, Deadline: 4000}
	start := o.now()
	for i := 0; i < n; i++ {
		if _, err := st.Append("bench", float64(i), body, false); err != nil {
			return Table{}, err
		}
	}
	if err := st.Sync(); err != nil {
		return Table{}, err
	}
	appendWall := o.now().Sub(start).Seconds()

	start = o.now()
	for i := 0; i < durableN; i++ {
		if _, err := st.Append("bench", float64(n+i), body, true); err != nil {
			return Table{}, err
		}
	}
	durableWall := o.now().Sub(start).Seconds()
	if err := st.Close(); err != nil {
		return Table{}, err
	}

	start = o.now()
	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		return Table{}, err
	}
	recoverWall := o.now().Sub(start).Seconds()
	defer func() {
		if err := st2.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "store experiment: closing recovered store: %v\n", err)
		}
	}()
	recovered := len(st2.RecoveredTail())
	if want := n + durableN; recovered != want {
		return Table{}, fmt.Errorf("recovery replayed %d records, want %d", recovered, want)
	}
	if payload, _, ok := st2.RecoveredSnapshot(); !ok || !bytes.Equal(payload, snap) {
		return Table{}, fmt.Errorf("recovered snapshot does not match what was written")
	}
	if st2.TornTails() != 0 {
		return Table{}, fmt.Errorf("clean shutdown recovered with %d torn tails", st2.TornTails())
	}

	t := Table{
		ID:      "store",
		Title:   "Durable control plane: journal throughput and recovery latency (§11)",
		Columns: []string{"phase", "ops", "wall (s)", "ops/sec"},
		Rows: [][]string{
			{"append (group-commit batch)", fmt.Sprintf("%d", n), f3(appendWall), f2(perSec(n, appendWall))},
			{"append (fsync each)", fmt.Sprintf("%d", durableN), f3(durableWall), f2(perSec(durableN, durableWall))},
			{"recover (snapshot + replay)", fmt.Sprintf("%d", recovered), f3(recoverWall), f2(perSec(recovered, recoverWall))},
		},
		Notes: []string{
			"non-durable appends ride the next group commit; the fsync-each rows bound acknowledged-mutation latency",
			"recovery = open the state dir, restore the snapshot, re-read and CRC-check the full journal tail",
		},
	}
	return t, nil
}
