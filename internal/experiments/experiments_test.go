package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
)

func quick() Options { return Options{Quick: true} }

// TestAllExperimentsProduceTables smoke-tests every registered experiment at
// quick scale.
func TestAllExperimentsProduceTables(t *testing.T) {
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			table, err := Registry[id](quick())
			if err != nil {
				t.Fatal(err)
			}
			if table.ID != id {
				t.Errorf("table ID %q want %q", table.ID, id)
			}
			if len(table.Rows) == 0 {
				t.Error("no rows")
			}
			for _, row := range table.Rows {
				if len(row) > len(table.Columns) {
					t.Errorf("row %v longer than header %v", row, table.Columns)
				}
			}
			if s := table.String(); !strings.Contains(s, id) {
				t.Error("rendered table missing its ID")
			}
		})
	}
}

func cell(t *testing.T, table Table, rowLabel, col string) float64 {
	t.Helper()
	ci := -1
	for i, c := range table.Columns {
		if c == col {
			ci = i
		}
	}
	if ci < 0 {
		t.Fatalf("column %q not in %v", col, table.Columns)
	}
	for _, row := range table.Rows {
		if row[0] == rowLabel {
			v, err := strconv.ParseFloat(row[ci], 64)
			if err != nil {
				t.Fatalf("cell %s/%s = %q not numeric", rowLabel, col, row[ci])
			}
			return v
		}
	}
	t.Fatalf("row %q not found", rowLabel)
	return 0
}

// TestFig3ShapeMatchesPaper: ElasticFlow meets both deadlines, EDF does not.
func TestFig3ShapeMatchesPaper(t *testing.T) {
	table, err := Fig3(quick())
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, row := range table.Rows {
		got[row[0]] = row[3]
	}
	if got["elasticflow"] != "2/2" {
		t.Errorf("elasticflow met %s deadlines want 2/2", got["elasticflow"])
	}
	if got["edf"] != "1/2" {
		t.Errorf("edf met %s deadlines want 1/2 (Fig. 3(b))", got["edf"])
	}
}

// TestFig6bShapeMatchesPaper: at the larger scale ElasticFlow beats every
// baseline on deadline satisfactory ratio, with EDF worst — the paper's
// headline ordering. Run at full scale (still fast in simulation).
func TestFig6bShapeMatchesPaper(t *testing.T) {
	table, err := Fig6b(Options{})
	if err != nil {
		t.Fatal(err)
	}
	ef := cell(t, table, "elasticflow", "DSR")
	for _, base := range []string{"edf", "gandiva", "tiresias", "themis", "chronus"} {
		dsr := cell(t, table, base, "DSR")
		if dsr >= ef {
			t.Errorf("%s DSR %.3f ≥ ElasticFlow %.3f — ordering broken", base, dsr, ef)
		}
	}
	// EDF collapses under contention: the paper reports 7.65× improvement;
	// require at least 3×.
	if edf := cell(t, table, "edf", "DSR"); ef/edf < 3 {
		t.Errorf("EF/EDF = %.2f want ≥ 3 (paper: 7.65)", ef/edf)
	}
}

// TestFig9AblationOrdering: both components matter — each variant improves
// on EDF, and full ElasticFlow is never materially worse than EDF+AC.
func TestFig9AblationOrdering(t *testing.T) {
	table, err := Fig9(quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range table.Rows {
		gpus := row[0]
		edf, _ := strconv.ParseFloat(row[1], 64)
		ac, _ := strconv.ParseFloat(row[2], 64)
		es, _ := strconv.ParseFloat(row[3], 64)
		ef, _ := strconv.ParseFloat(row[4], 64)
		if es < edf {
			t.Errorf("gpus=%s: EDF+ES %.3f below EDF %.3f", gpus, es, edf)
		}
		if ef < edf {
			t.Errorf("gpus=%s: ElasticFlow %.3f below EDF %.3f", gpus, ef, edf)
		}
		_ = ac
	}
}

// TestFig10ElasticFlowMostEfficient: under loose deadlines ElasticFlow has
// the best cluster efficiency and the smallest makespan (§6.4).
func TestFig10ElasticFlowMostEfficient(t *testing.T) {
	table, err := Fig10(quick())
	if err != nil {
		t.Fatal(err)
	}
	efCE := cell(t, table, "elasticflow", "avg CE")
	efMk := cell(t, table, "elasticflow", "makespan (h)")
	for _, row := range table.Rows {
		if row[0] == "elasticflow" {
			continue
		}
		ce := cell(t, table, row[0], "avg CE")
		mk := cell(t, table, row[0], "makespan (h)")
		if ce > efCE+1e-9 {
			t.Errorf("%s CE %.3f above ElasticFlow %.3f", row[0], ce, efCE)
		}
		if mk < efMk-1e-9 {
			t.Errorf("%s makespan %.2f below ElasticFlow %.2f", row[0], mk, efMk)
		}
	}
}

// TestFig2aHasPaperAnchor: the VGG16 curve at 8 workers sits in the
// sub-linear band around the paper's 76% anchor.
func TestFig2aHasPaperAnchor(t *testing.T) {
	table, err := Fig2a(quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range table.Rows {
		if row[0] != "vgg16/256" {
			continue
		}
		// Columns: model g=1 g=2 g=4 g=8 ... ; vgg16/256 starts at g=2,
		// so efficiency vs linear at g=8 is value/4 (8 workers / min 2).
		v, err := strconv.ParseFloat(row[4], 64)
		if err != nil {
			t.Fatalf("g=8 cell %q", row[4])
		}
		eff := v / 4
		if eff < 0.6 || eff > 0.9 {
			t.Errorf("VGG16 8-worker efficiency %.2f outside the paper's sub-linear band", eff)
		}
		return
	}
	t.Fatal("vgg16/256 row missing")
}

func TestTableRendering(t *testing.T) {
	table := Table{
		ID:      "x",
		Title:   "title",
		Columns: []string{"a", "long-header"},
		Rows:    [][]string{{"1", "2"}, {"wide-cell", "3"}},
		Notes:   []string{"a note"},
	}
	s := table.String()
	for _, want := range []string{"== x: title ==", "long-header", "wide-cell", "note: a note"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered table missing %q:\n%s", want, s)
		}
	}
}

// TestFidelityWithinPaperBand: the simulator and the live platform agree on
// admissions and on every job's transition sequence (Fidelity itself errors
// when a trail diverges), so completion times differ only by the live
// clock's quantum — orders of magnitude inside the paper's ≤3% band.
func TestFidelityWithinPaperBand(t *testing.T) {
	table, err := Fidelity(quick())
	if err != nil {
		t.Fatal(err)
	}
	foundErr, foundAgree, foundTrails := false, false, false
	for _, n := range table.Notes {
		var pct float64
		var cnt int
		if _, err := fmt.Sscanf(n, "mean completion-time error: %f%% over %d completed jobs", &pct, &cnt); err == nil {
			foundErr = true
			if pct > 1e-6 {
				t.Errorf("mean fidelity error %g%% is beyond clock-quantum scale", pct)
			}
			if cnt == 0 {
				t.Error("no jobs completed in both legs")
			}
		}
		foundTrails = foundTrails || strings.HasPrefix(n, "place/rescale/migrate/complete transitions")
		var agree, total int
		if _, err := fmt.Sscanf(n, "admission decisions agree on %d/%d jobs", &agree, &total); err == nil {
			foundAgree = true
			if agree != total {
				t.Errorf("admission decisions disagree: %d/%d", agree, total)
			}
		}
	}
	if !foundErr || !foundAgree || !foundTrails {
		t.Errorf("fidelity notes missing: %v", table.Notes)
	}
}
