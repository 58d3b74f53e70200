// Command ckbench regenerates the paper's tables and the evaluation
// experiments on the simulated ParaDiGM machine, printing measured values
// next to the published ones. The experiments are the entries of
// exp.Experiments (ckbench -h lists them); run -exp all (default, every
// entry not marked opt-in) or a comma-separated list of ids. With -json
// an entry that keeps a BENCH_*.json report (rec, orch, fork) also
// writes it to the current directory (see EXPERIMENTS.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"vpp/internal/exp"
)

func main() {
	expFlag := flag.String("exp", "all", "experiments to run (comma separated)")
	full := flag.Bool("full", false, "use the paper's full 65536-descriptor pool in s52b (slower)")
	jsonOut := flag.Bool("json", false, "also write each selected experiment's BENCH_*.json report")
	flag.Usage = func() {
		w := flag.CommandLine.Output()
		fmt.Fprintf(w, "usage: ckbench [-exp all|id,...] [-full] [-json]\n\nexperiments (opt-in ones run only when named):\n")
		for _, e := range exp.Experiments {
			optIn := ""
			if e.OptIn {
				optIn = " [opt-in]"
			}
			fmt.Fprintf(w, "  %-5s %s%s\n", e.ID, e.Title, optIn)
		}
		fmt.Fprintln(w)
		flag.PrintDefaults()
	}
	flag.Parse()

	sel, err := exp.Select(*expFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ckbench: %v\n", err)
		os.Exit(2)
	}
	failed := false
	for _, e := range sel {
		fmt.Printf("=== %s: %s ===\n", strings.ToUpper(e.ID), e.Title)
		res, err := e.Run(*full)
		if res != nil {
			fmt.Println(res)
			if *jsonOut && e.Bench != "" {
				if werr := writeBench(e.Bench, res); werr != nil {
					fmt.Fprintf(os.Stderr, "error: %v\n", werr)
					failed = true
				}
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

// writeBench records a result as its BENCH_*.json report in the current
// directory.
func writeBench(name string, res any) error {
	b, err := exp.BenchJSON(res)
	if err != nil {
		return err
	}
	if err := os.WriteFile(name, b, 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", name)
	return nil
}
