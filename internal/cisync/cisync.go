// Package cisync keeps the Makefile's `ci` target and the GitHub workflow
// in lockstep. The Makefile header promises "CI runs the same commands;
// keep the two in sync" — a promise that had already drifted once by hand —
// so the contract is now checked mechanically: the set of commands reached
// from `make ci` must equal the set of `run:` commands in the workflow's
// mirror jobs. The check runs as a plain unit test (tier-1) and via
// `make ci-sync-check`, which lint depends on.
package cisync

import (
	"fmt"
	"os"
	"regexp"
	"sort"
	"strings"
)

// MakeCICommands returns the normalized shell commands executed by
// `make <target>`, expanding prerequisite targets recursively (depth-first,
// prerequisites before the target's own recipe — make's execution order for
// a serial build).
func MakeCICommands(makefilePath, target string) ([]string, error) {
	data, err := os.ReadFile(makefilePath)
	if err != nil {
		return nil, err
	}
	type rule struct {
		deps   []string
		recipe []string
	}
	rules := make(map[string]*rule)
	vars := make(map[string]string)
	var cur *rule
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "\t") {
			if cur != nil {
				cur.recipe = append(cur.recipe, normalizeMake(line, vars))
			}
			continue
		}
		cur = nil
		trimmed := strings.TrimSpace(line)
		if m := varRE.FindStringSubmatch(trimmed); m != nil {
			vars[m[1]] = m[2]
			continue
		}
		if trimmed == "" || strings.HasPrefix(trimmed, "#") || strings.Contains(trimmed, "=") {
			continue
		}
		name, rest, ok := strings.Cut(trimmed, ":")
		if !ok || strings.HasPrefix(name, ".") {
			continue
		}
		cur = &rule{}
		for _, d := range strings.Fields(rest) {
			cur.deps = append(cur.deps, d)
		}
		for _, n := range strings.Fields(name) {
			rules[n] = cur
		}
	}

	var out []string
	seen := make(map[string]bool)
	var walk func(string) error
	walk = func(t string) error {
		if seen[t] {
			return nil
		}
		seen[t] = true
		r, ok := rules[t]
		if !ok {
			return fmt.Errorf("cisync: target %q not found in %s", t, makefilePath)
		}
		for _, d := range r.deps {
			if err := walk(d); err != nil {
				return err
			}
		}
		for _, c := range r.recipe {
			if c != "" {
				out = append(out, c)
			}
		}
		return nil
	}
	if err := walk(target); err != nil {
		return nil, err
	}
	return out, nil
}

// varRE matches a simple Makefile variable definition (`GO ?= go`).
var varRE = regexp.MustCompile(`^([A-Z][A-Z0-9_]*)\s*\??=\s*(.*)$`)

// normalizeMake turns one Makefile recipe line into the shell command CI
// would run: variables the Makefile defines above the recipe, at their
// default values ($(GO) → go), make's $$ escape, and the @/- echo/ignore
// prefixes.
func normalizeMake(line string, vars map[string]string) string {
	c := strings.TrimSpace(line)
	c = strings.TrimLeft(c, "@-")
	for name, value := range vars {
		c = strings.ReplaceAll(c, "$("+name+")", value)
	}
	c = strings.ReplaceAll(c, "$$", "$")
	return strings.TrimSpace(c)
}

var jobRE = regexp.MustCompile(`^  ([A-Za-z0-9_-]+):\s*$`)

// WorkflowRunCommands extracts the normalized `run:` commands of the named
// jobs from a GitHub Actions workflow. The parser is indentation-based and
// intentionally minimal — it understands exactly the subset of YAML our
// workflows use (block scalars via `run: |`, single-line `run: cmd`).
func WorkflowRunCommands(workflowPath string, jobs []string) ([]string, error) {
	data, err := os.ReadFile(workflowPath)
	if err != nil {
		return nil, err
	}
	want := make(map[string]bool, len(jobs))
	for _, j := range jobs {
		want[j] = true
	}
	lines := strings.Split(string(data), "\n")
	var out []string
	inJobs := false
	inWanted := false
	matchedJobs := 0
	for i := 0; i < len(lines); i++ {
		line := lines[i]
		if strings.TrimRight(line, " ") == "jobs:" {
			inJobs = true
			continue
		}
		if !inJobs {
			continue
		}
		if m := jobRE.FindStringSubmatch(line); m != nil {
			inWanted = want[m[1]]
			if inWanted {
				matchedJobs++
			}
			continue
		}
		if !inWanted {
			continue
		}
		trimmed := strings.TrimSpace(line)
		rest, ok := strings.CutPrefix(trimmed, "run:")
		if !ok {
			continue
		}
		rest = strings.TrimSpace(rest)
		if rest == "|" || rest == "|-" {
			indent := indentOf(line)
			for i+1 < len(lines) {
				next := lines[i+1]
				if strings.TrimSpace(next) != "" && indentOf(next) <= indent {
					break
				}
				i++
				if c := strings.TrimSpace(next); c != "" {
					out = append(out, c)
				}
			}
		} else if rest != "" {
			out = append(out, rest)
		}
	}
	if matchedJobs != len(jobs) {
		return nil, fmt.Errorf("cisync: %s defines %d of the %d mirror jobs %v", workflowPath, matchedJobs, len(jobs), jobs)
	}
	return out, nil
}

func indentOf(s string) int {
	return len(s) - len(strings.TrimLeft(s, " "))
}

// Check verifies that `make <target>` and the workflow's mirror jobs run the
// same command set, and reports the drift in both directions.
func Check(makefilePath, workflowPath, target string, jobs []string) error {
	makeCmds, err := MakeCICommands(makefilePath, target)
	if err != nil {
		return err
	}
	ciCmds, err := WorkflowRunCommands(workflowPath, jobs)
	if err != nil {
		return err
	}
	makeSet := toSet(makeCmds)
	ciSet := toSet(ciCmds)
	var drift []string
	for _, c := range sortedKeys(makeSet) {
		if !ciSet[c] {
			drift = append(drift, fmt.Sprintf("in `make %s` but not in %v of %s: %q", target, jobs, workflowPath, c))
		}
	}
	for _, c := range sortedKeys(ciSet) {
		if !makeSet[c] {
			drift = append(drift, fmt.Sprintf("in %s jobs %v but not in `make %s`: %q", workflowPath, jobs, target, c))
		}
	}
	if len(drift) > 0 {
		return fmt.Errorf("cisync: Makefile and workflow drifted:\n  %s", strings.Join(drift, "\n  "))
	}
	return nil
}

func toSet(xs []string) map[string]bool {
	m := make(map[string]bool, len(xs))
	for _, x := range xs {
		m[x] = true
	}
	return m
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
