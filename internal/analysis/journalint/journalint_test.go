package journalint_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/elasticflow/elasticflow/internal/analysis"
	"github.com/elasticflow/elasticflow/internal/analysis/analysistest"
	"github.com/elasticflow/elasticflow/internal/analysis/journalint"
)

func TestFixture(t *testing.T) {
	analysistest.Run(t, "testdata", journalint.Analyzer, "journal")
}

// cancelJournalBlock is the real journal append inside Platform.Cancel. The
// reorder test below moves it after the apply call; if this text drifts out
// of sync with internal/serverless/platform.go the test fails loudly rather
// than silently passing.
const cancelJournalBlock = `	now, err := p.recordLocked(recCancel, cancelBody{ID: id})
	if err != nil {
		return err
	}
	if err := p.applyCancelLocked(id, now); err != nil {
		return err
	}`

const cancelJournalReordered = `	now := p.lastTick
	if err := p.applyCancelLocked(id, now); err != nil {
		return err
	}
	if _, err := p.recordLocked(recCancel, cancelBody{ID: id}); err != nil {
		return err
	}`

// TestRealRevert proves journalint guards the real control plane: a copy of
// the repository passes clean, and the same copy with Cancel's journal
// append moved after its apply call — the exact regression record-then-apply
// exists to prevent — draws the diagnostic.
func TestRealRevert(t *testing.T) {
	root, err := analysis.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	copyModule(t, root, tmp)

	run := func() []analysis.Diagnostic {
		t.Helper()
		diags, err := analysis.Run(tmp, []string{"./internal/serverless"}, []*analysis.Analyzer{journalint.Analyzer})
		if err != nil {
			t.Fatal(err)
		}
		return diags
	}

	if diags := run(); len(diags) != 0 {
		t.Fatalf("unmodified copy: expected no diagnostics, got %v", diags)
	}

	platform := filepath.Join(tmp, "internal", "serverless", "platform.go")
	src, err := os.ReadFile(platform)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(src), cancelJournalBlock) {
		t.Fatal("platform.go no longer contains the expected Cancel journal block; update cancelJournalBlock in this test")
	}
	mutated := strings.Replace(string(src), cancelJournalBlock, cancelJournalReordered, 1)
	if err := os.WriteFile(platform, []byte(mutated), 0o644); err != nil {
		t.Fatal(err)
	}

	diags := run()
	found := false
	for _, d := range diags {
		if strings.Contains(d.Message, "applies applyCancelLocked before the journal append") &&
			strings.HasSuffix(d.Pos.Filename, "platform.go") {
			found = true
		}
	}
	if !found {
		t.Fatalf("reordered Cancel: expected an apply-before-append diagnostic in platform.go, got %v", diags)
	}
}

// copyModule copies go.mod and every non-test Go file of the module into
// dst, preserving layout and skipping testdata, hidden directories and the
// git metadata — just enough tree for the loader.
func copyModule(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if name != "go.mod" && (!strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go")) {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if err := os.MkdirAll(filepath.Dir(target), 0o755); err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}
