// Command eflint is the repo's multichecker: it runs the custom analyzers
// under internal/analysis — the per-package passes (detlint, floatlint,
// errlint) and the whole-program pass (locklint) — over package
// patterns and exits non-zero when any finding survives its //eflint:ignore
// suppressions.
//
// Usage:
//
//	eflint [-only a,b] [-list] [-json] [packages]
//
// Packages default to ./... relative to the module root containing the
// working directory. Run it as `go run ./cmd/eflint ./...` or build it and
// wire it into CI next to go vet; DESIGN.md documents the conventions the
// analyzers enforce.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/elasticflow/elasticflow/internal/analysis"
	"github.com/elasticflow/elasticflow/internal/analysis/detlint"
	"github.com/elasticflow/elasticflow/internal/analysis/errlint"
	"github.com/elasticflow/elasticflow/internal/analysis/floatlint"
	"github.com/elasticflow/elasticflow/internal/analysis/locklint"
)

var all = []*analysis.Analyzer{
	detlint.Analyzer,
	errlint.Analyzer,
	floatlint.Analyzer,
	locklint.Analyzer,
}

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	only := flag.String("only", "", "comma-separated analyzer names to run (default all)")
	jsonOut := flag.Bool("json", false, "emit findings as JSON lines (file/line/analyzer/message)")
	flag.Parse()

	if *list {
		for _, a := range all {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := all
	if *only != "" {
		byName := make(map[string]*analysis.Analyzer, len(all))
		for _, a := range all {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fatalf("unknown analyzer %q (try -list)", name)
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fatalf("%v", err)
	}
	root, err := analysis.FindModuleRoot(cwd)
	if err != nil {
		fatalf("%v", err)
	}
	diags, err := analysis.Run(root, patterns, analyzers)
	if err != nil {
		fatalf("%v", err)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		for _, d := range diags {
			rec := struct {
				File     string `json:"file"`
				Line     int    `json:"line"`
				Analyzer string `json:"analyzer"`
				Message  string `json:"message"`
			}{d.Pos.Filename, d.Pos.Line, d.Analyzer, d.Message}
			if err := enc.Encode(rec); err != nil {
				fatalf("%v", err)
			}
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "eflint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "eflint: "+format+"\n", args...)
	os.Exit(2)
}
