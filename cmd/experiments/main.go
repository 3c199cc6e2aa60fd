// Command experiments regenerates the paper-reproduction experiments
// E1–E14 (see DESIGN.md for the index and EXPERIMENTS.md for recorded
// results).
//
// Usage:
//
//	experiments -list
//	experiments -run E2 [-quick] [-seed 0]
//	experiments -run all -quick
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"sublinear/internal/experiment"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		list   = flag.Bool("list", false, "list experiments and exit")
		runID  = flag.String("run", "", "experiment ID (E1..E14), or 'all'")
		quick  = flag.Bool("quick", false, "smaller sweeps and repetition counts")
		seed   = flag.Uint64("seed", 0, "seed base offset for independent re-runs")
		csvDir = flag.String("csv", "", "also write every table as CSV into this directory")
	)
	flag.Parse()

	if *list || *runID == "" {
		fmt.Println("available experiments:")
		for _, r := range experiment.All() {
			fmt.Printf("  %-4s %s\n", r.ID, r.Title)
		}
		if *runID == "" && !*list {
			return fmt.Errorf("use -run <id> or -run all")
		}
		return nil
	}

	cfg := experiment.Config{Quick: *quick, Progress: os.Stderr, SeedBase: *seed}
	var runners []experiment.Runner
	if strings.EqualFold(*runID, "all") {
		runners = experiment.All()
	} else {
		for _, id := range strings.Split(*runID, ",") {
			r, ok := experiment.Find(strings.TrimSpace(id))
			if !ok {
				return fmt.Errorf("unknown experiment %q (use -list)", id)
			}
			runners = append(runners, r)
		}
	}
	for _, r := range runners {
		rep, err := r.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", r.ID, err)
		}
		if err := rep.Render(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
		if *csvDir != "" {
			if err := writeCSVs(*csvDir, rep); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeCSVs(dir string, rep *experiment.Report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, tbl := range rep.Tables {
		name := filepath.Join(dir, fmt.Sprintf("%s_table%d.csv", strings.ToLower(rep.ID), i+1))
		f, err := os.Create(name)
		if err != nil {
			return err
		}
		if err := tbl.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", name)
	}
	return nil
}
