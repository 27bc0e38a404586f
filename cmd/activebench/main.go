// Command activebench regenerates the tables and figures of the ActiveRMT
// paper's evaluation (Section 6).
//
// Usage:
//
//	activebench -list
//	activebench [-quick] [-seed N] [-out DIR] fig5a fig8b ...
//	activebench [-quick] all
//
// Each experiment prints its headline metrics and notes to stdout and
// writes its CSV data series to DIR/<id>.csv (default: results/).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"activermt/internal/experiments"
)

func main() {
	list := flag.Bool("list", false, "list experiments and exit")
	quick := flag.Bool("quick", false, "reduced trials/epochs")
	seed := flag.Int64("seed", 1, "workload seed")
	out := flag.String("out", "results", "output directory for CSV series")
	flag.Parse()

	if *list {
		for _, s := range experiments.Registry {
			fmt.Printf("%-8s %s\n         paper: %s\n", s.ID, s.Title, s.Paper)
		}
		return
	}
	ids := flag.Args()
	if len(ids) == 0 {
		fmt.Fprintln(os.Stderr, "activebench: name experiments to run, or 'all' (see -list)")
		os.Exit(2)
	}
	if len(ids) == 1 && ids[0] == "all" {
		ids = ids[:0]
		for _, s := range experiments.Registry {
			ids = append(ids, s.ID)
		}
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "activebench:", err)
		os.Exit(1)
	}

	cfg := experiments.RunConfig{Quick: *quick, Seed: *seed}
	failed := 0
	for _, id := range ids {
		spec, ok := experiments.Lookup(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "activebench: unknown experiment %q\n", id)
			failed++
			continue
		}
		fmt.Printf("== %s: %s\n", spec.ID, spec.Title)
		fmt.Printf("   paper: %s\n", spec.Paper)
		start := time.Now()
		res, err := spec.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "activebench: %s: %v\n", id, err)
			failed++
			continue
		}
		path := filepath.Join(*out, res.ID+".csv")
		if err := os.WriteFile(path, []byte(res.CSV), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "activebench: %s: %v\n", id, err)
			failed++
			continue
		}
		res.Print(os.Stdout, "   ", 40)
		fmt.Printf("   data: %s (%.1fs)\n\n", path, time.Since(start).Seconds())
	}
	if failed > 0 {
		os.Exit(1)
	}
}
