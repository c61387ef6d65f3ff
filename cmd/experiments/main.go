// Command experiments regenerates the tables and figures of the paper's
// evaluation section. Each experiment prints its rows plus notes naming
// the paper numbers whose shape it reproduces; docs/EXPERIMENTS.md maps
// every experiment ID to its paper artifact, invocation and output
// shape.
//
// ^C cancels the in-flight searches; the experiments cut short report
// whatever their searches had found at that point.
//
// Search budgets are charged in deterministic virtual time;
// -cost-profile loads a fitted calibration profile (written by
// `flexflow -calibrate`) so virtual budgets track wall clock, and every
// rendered table carries a note naming the profile that priced its
// searches. A missing or invalid profile falls back to the built-in
// defaults with a warning.
//
// Examples:
//
//	experiments -list
//	experiments -exp fig8
//	experiments -exp all               # every runner across the worker pool
//	experiments -exp fig7 -full        # paper-scale (slow)
//	experiments -exp all -workers 1    # serial (identical tables, more wall clock)
//	experiments -exp table4 -cost-profile profile.json
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"flexflow"
	"flexflow/internal/experiments"
	"flexflow/internal/par"
)

func main() {
	var (
		exp         = flag.String("exp", "", "experiment ID, or \"all\"")
		list        = flag.Bool("list", false, "list experiment IDs and exit")
		full        = flag.Bool("full", false, "paper-scale settings (slow); default is quick scale")
		workers     = flag.Int("workers", 0, "size of the process-wide worker pool shared by runners, data points and search chains (0 = all CPUs)")
		costProfile = flag.String("cost-profile", "", "virtual-time cost profile JSON (from `flexflow -calibrate`) pricing every search budget")
	)
	flag.Parse()

	if *list || *exp == "" {
		fmt.Println("experiments:")
		for _, id := range experiments.IDs() {
			fmt.Println("  " + id)
		}
		fmt.Println("  all")
		if *exp == "" && !*list {
			os.Exit(2)
		}
		return
	}
	scale := experiments.Quick()
	if *full {
		scale = experiments.Full()
	}
	// One knob, one pool: runners, cells, chains and sweeps all nest on
	// the shared pool under this single bound.
	par.SetWorkers(*workers)

	// Which cost model prices the virtual search budgets — recorded on
	// every table so results name the profile that produced them.
	costDesc := flexflow.DefaultCostProfile().Describe()
	if *costProfile != "" {
		if prof, err := flexflow.LoadCostProfile(*costProfile); err != nil {
			fmt.Fprintf(os.Stderr, "warning: %v; budgets fall back to the built-in cost defaults\n", err)
		} else {
			flexflow.SetCostProfile(prof)
			costDesc = prof.Describe()
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	start := time.Now()
	tables, err := experiments.Run(ctx, *exp, scale)
	if err != nil && len(tables) == 0 {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, t := range tables {
		t.Notes = append(t.Notes, "cost profile: "+costDesc)
		fmt.Println(t.Render())
	}
	fmt.Printf("%s finished in %v at scale %q\n", strings.ToLower(*exp), time.Since(start).Round(time.Millisecond), scale.Name)
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "interrupted: searches were cut short; tables show best-so-far results")
		os.Exit(130) // match cmd/flexflow: report, then signal the interrupt
	}
}
