// Command ode-bench runs the reproduction experiment suite (see
// DESIGN.md for the catalogue and EXPERIMENTS.md for recorded results)
// and prints one paper-shaped table per experiment, followed by a
// pass/fail summary against the paper's predicted shapes. Performance
// is measured by the bench/ ledger, not here.
//
// Usage:
//
//	ode-bench [-quick] [-only E5,E8]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"ode/internal/experiments"
)

func main() {
	log.SetFlags(0)
	quick := flag.Bool("quick", false, "reduced iteration counts")
	only := flag.String("only", "", "comma-separated experiment IDs (e.g. E2,E5); empty runs all")
	flag.Parse()

	r := &experiments.Runner{
		W:   os.Stdout,
		Cfg: experiments.Config{Quick: *quick},
	}
	if *only == "" {
		results := r.RunAll()
		for _, res := range results {
			if !res.Passed {
				os.Exit(1)
			}
		}
		return
	}

	fns := map[string]func(*experiments.Runner) experiments.Result{}
	var valid []string
	for _, e := range experiments.Suite {
		fns[e.ID] = e.Run
		valid = append(valid, e.ID)
	}
	failed := false
	for _, id := range strings.Split(*only, ",") {
		id = strings.TrimSpace(strings.ToUpper(id))
		fn, ok := fns[id]
		if !ok {
			log.Fatalf("unknown experiment %q (valid: %s)", id, strings.Join(valid, ","))
		}
		res := fn(r)
		verdict := "ok"
		if !res.Passed {
			verdict = "FAIL"
			failed = true
		}
		fmt.Printf("-> %s %s: %s\n\n", res.ID, verdict, res.Summary)
	}
	if failed {
		os.Exit(1)
	}
}
