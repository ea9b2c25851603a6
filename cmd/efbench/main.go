// Command efbench regenerates the paper's tables and figures.
//
// Usage:
//
//	efbench [-exp id[,id...]] [-quick] [-list] [-out dir]
//
// Without -exp it runs every experiment in order and prints each table with
// its wall time. It writes no performance record: the repo's one record is
// the real-path benchmark BENCHMARK.json declares (`go run ./benchmark`).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/elasticflow/elasticflow/internal/experiments"
)

func main() {
	exp := flag.String("exp", "", "comma-separated experiment IDs (default: all)")
	quick := flag.Bool("quick", false, "shrink workloads for a fast pass")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	out := flag.String("out", "", "also write each table to <dir>/<id>.txt")
	flag.Parse()

	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "efbench: %v\n", err)
			os.Exit(1)
		}
	}

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}
	ids := experiments.IDs()
	if *exp != "" {
		ids = strings.Split(*exp, ",")
	}
	// efbench is the measurement harness, so it injects the real wall clock;
	// the experiments package itself stays deterministic (detlint-enforced).
	opts := experiments.Options{Quick: *quick, Clock: time.Now}
	for _, id := range ids {
		gen, ok := experiments.Registry[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "efbench: unknown experiment %q (use -list)\n", id)
			os.Exit(2)
		}
		start := time.Now()
		table, err := gen(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "efbench: %s: %v\n", id, err)
			os.Exit(1)
		}
		wall := time.Since(start).Seconds()
		fmt.Println(table)
		fmt.Printf("(%s took %.1fs)\n\n", id, wall)
		if *out != "" {
			path := filepath.Join(*out, id+".txt")
			if err := os.WriteFile(path, []byte(table.String()), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "efbench: writing %s: %v\n", path, err)
				os.Exit(1)
			}
		}
	}
}
