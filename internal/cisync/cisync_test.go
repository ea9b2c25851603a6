package cisync

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// mirrorJobs are the ci.yml jobs that together must run exactly the
// `make ci` command set. The bench and nightly jobs are deliberately
// excluded: they are CI-only (base/head comparison needs two checkouts).
var mirrorJobs = []string{"lint", "test-race", "fuzz-smoke"}

// TestRepoCISync is the real check: the repository's own Makefile and
// workflow must agree — `make ci` with the mirror jobs, and `make bench-real`
// with the non-gating job that records the real-path benchmark.
// `make ci-sync-check` runs this test.
func TestRepoCISync(t *testing.T) {
	if err := Check("../../Makefile", "../../.github/workflows/ci.yml", "ci", mirrorJobs); err != nil {
		t.Fatal(err)
	}
	if err := Check("../../Makefile", "../../.github/workflows/ci.yml", "bench-real", []string{"bench-real"}); err != nil {
		t.Fatal(err)
	}
}

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const fakeMakefile = `# header
GO ?= go
FUZZ_TIME = 10s

.PHONY: build test ci

build:
	$(GO) build ./...

fuzz:
	@$(GO) test -run=^$$ -fuzz=FuzzX -fuzztime=$(FUZZ_TIME) ./internal/x/

ci: build fuzz
	$(GO) vet ./...
`

// TestMakeCICommands covers recursive prerequisite expansion and recipe
// normalization (variables at their defaults, $$, @ prefix).
func TestMakeCICommands(t *testing.T) {
	mk := writeFile(t, "Makefile", fakeMakefile)
	got, err := MakeCICommands(mk, "ci")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"go build ./...",
		"go test -run=^$ -fuzz=FuzzX -fuzztime=10s ./internal/x/",
		"go vet ./...",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("commands = %q, want %q", got, want)
	}
	if _, err := MakeCICommands(mk, "nope"); err == nil {
		t.Error("missing target accepted")
	}
}

const fakeWorkflow = `name: ci
on:
  push:
jobs:
  lint:
    runs-on: ubuntu-latest
    steps:
      - uses: actions/checkout@v4
      - name: Build
        run: go build ./...
      - name: Grouped
        run: |
          go vet ./...
          go test -run=^$ -fuzz=FuzzX -fuzztime=10s ./internal/x/
  bench:
    runs-on: ubuntu-latest
    steps:
      - name: Not a mirror job
        run: go test -bench . ./...
`

// TestWorkflowRunCommands covers single-line and block-scalar run steps, and
// that non-mirror jobs are ignored.
func TestWorkflowRunCommands(t *testing.T) {
	wf := writeFile(t, "ci.yml", fakeWorkflow)
	got, err := WorkflowRunCommands(wf, []string{"lint"})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"go build ./...",
		"go vet ./...",
		"go test -run=^$ -fuzz=FuzzX -fuzztime=10s ./internal/x/",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("commands = %q, want %q", got, want)
	}
	if _, err := WorkflowRunCommands(wf, []string{"lint", "test-race"}); err == nil {
		t.Error("missing mirror job accepted")
	}
}

// TestCheckDetectsDrift proves the check fails in both directions: a command
// only in make, and a command only in the workflow.
func TestCheckDetectsDrift(t *testing.T) {
	mk := writeFile(t, "Makefile", fakeMakefile)
	wf := writeFile(t, "ci.yml", fakeWorkflow)
	if err := Check(mk, wf, "ci", []string{"lint"}); err != nil {
		t.Errorf("in-sync pair rejected: %v", err)
	}

	drifted := strings.Replace(fakeWorkflow, "go vet ./...", "go vet ./internal/...", 1)
	wf2 := writeFile(t, "ci2.yml", drifted)
	err := Check(mk, wf2, "ci", []string{"lint"})
	if err == nil {
		t.Fatal("drifted pair accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, "go vet ./...") || !strings.Contains(msg, "go vet ./internal/...") {
		t.Errorf("drift report missing a direction:\n%s", msg)
	}
}
