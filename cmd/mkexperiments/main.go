// Command mkexperiments regenerates the paper's tables and figures.
//
// Usage:
//
//	mkexperiments                 # everything, full sweeps, 5 reps
//	mkexperiments -quick          # three node counts per app
//	mkexperiments -only fig5b     # a single artifact
//	mkexperiments -workers 1      # sequential fan-out (same output, slower)
//
// Artifacts: fig4, fig5a, fig5b, fig6a, fig6b, table1, ltp, brktrace,
// proxyopts, ccsqcd-ddr, corespec, quadrant, ablations, resilience,
// facility, schedsweep.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"mklite"
	"mklite/internal/cliflags"
)

func main() {
	var (
		quick    = flag.Bool("quick", false, "restrict sweeps to three node counts per app")
		reps     = flag.Int("reps", 5, "repetitions per data point")
		seed     = cliflags.Seed(flag.CommandLine)
		only     = flag.String("only", "", "comma-separated artifact subset")
		workers  = cliflags.Workers(flag.CommandLine)
		counters = cliflags.Counters(flag.CommandLine)
		metricsF = cliflags.Metrics(flag.CommandLine)
		faults   = cliflags.Faults(flag.CommandLine)
		sloSpec  = cliflags.SLO(flag.CommandLine)
		schedF   = cliflags.Sched(flag.CommandLine)
		jsonOut  = flag.String("json", "", "write the schedsweep figures as byte-stable JSON to this file (schedsweep artifact only)")
	)
	flag.Parse()

	cfg := mklite.ExperimentConfig{Reps: *reps, Seed: *seed, Quick: *quick, Workers: *workers, Counters: *counters, Metrics: *metricsF, Sched: *schedF}
	if *faults != "" {
		plan, err := cliflags.ParseFaults(*faults)
		check(err)
		cfg.Faults = plan
	}
	if *sloSpec != "" {
		cfg.SLO = *sloSpec
		if *sloSpec == "default" {
			cfg.SLO = mklite.DefaultFacilitySLO
		}
	}
	want := map[string]bool{}
	if *only != "" {
		for _, k := range strings.Split(*only, ",") {
			want[strings.TrimSpace(k)] = true
		}
	}
	sel := func(name string) bool { return len(want) == 0 || want[name] }

	if sel("fig4") {
		figs, sum, err := mklite.ReproduceFigure4(cfg)
		check(err)
		fmt.Println("==== Figure 4: relative median performance vs Linux ====")
		for _, fig := range figs {
			fmt.Print(fig.Render())
			rel := mklite.Relative(fig)
			fmt.Print(rel.Render())
			printCounters(fig)
			fmt.Println()
		}
		fmt.Printf("Cross-application summary: median improvement %.2fx (paper: 1.09x);"+
			" best %.2fx on %s/%s at %d nodes (paper: up to 3.8x)\n\n",
			sum.MedianImprovement, sum.BestImprovement, sum.BestApp, sum.BestKernel, sum.BestNodes)
	}
	if sel("fig5a") {
		fig, err := mklite.ReproduceFigure5a(cfg)
		check(err)
		fmt.Println("==== Figure 5a: CCS-QCD, % of Linux median ====")
		fmt.Print(fig.Render())
		printCounters(fig)
		fmt.Println()
	}
	if sel("fig5b") {
		fig, err := mklite.ReproduceFigure5b(cfg)
		check(err)
		fmt.Println("==== Figure 5b: MiniFE scaling (Mflops) ====")
		fmt.Print(fig.Render())
		printCounters(fig)
		fmt.Println()
	}
	if sel("fig6a") {
		fig, err := mklite.ReproduceFigure6a(cfg)
		check(err)
		fmt.Println("==== Figure 6a: Lulesh 2.0 scaling (zones/s) ====")
		fmt.Print(fig.Render())
		printCounters(fig)
		fmt.Println()
	}
	if sel("fig6b") {
		fig, err := mklite.ReproduceFigure6b(cfg)
		check(err)
		fmt.Println("==== Figure 6b: LAMMPS scaling (timesteps/s) ====")
		fmt.Print(fig.Render())
		printCounters(fig)
		fmt.Println()
	}
	if sel("table1") {
		_, rendered, err := mklite.ReproduceTableI(cfg)
		check(err)
		fmt.Println("==== Table I: Lulesh in DDR4 with/without brk optimizations ====")
		fmt.Println("(paper: Linux 8,959 zones/s 100.0% | mOS heap off 106.6% | mOS regular 121.0%)")
		fmt.Print(rendered)
		fmt.Println()
	}
	if sel("ltp") {
		_, rendered, err := mklite.Conformance()
		check(err)
		fmt.Println("==== Section III-D: LTP syscall conformance ====")
		fmt.Println("(paper: McKernel fails 32, mOS fails 111 of 3,328)")
		fmt.Print(rendered)
		fmt.Println()
	}
	if sel("brktrace") {
		traces, err := mklite.ReproduceBrkTrace(cfg)
		check(err)
		fmt.Println("==== Section IV: Lulesh brk trace ====")
		fmt.Println("(paper, -s 30: 7,526 queries / 3,028 grows / 1,499 shrinks; 87 MB peak; 22 GB cumulative)")
		for _, tr := range traces {
			fmt.Printf("%-9s %5d queries %5d grows %5d shrinks (%d calls); peak %d B; cumulative %d B; %d heap faults\n",
				tr.Kernel, tr.Queries, tr.Grows, tr.Shrinks, tr.Calls,
				tr.PeakBytes, tr.CumulativeBytes, tr.HeapFaults)
		}
		fmt.Println()
	}
	if sel("brktrace") {
		res, err := mklite.ReproduceBrkTraceS30()
		check(err)
		fmt.Println("==== Section IV: exact Lulesh -s30 brk trace replay (12,053 calls) ====")
		fmt.Println("(paper: 7,526 queries / 3,028 grows / 1,499 shrinks; 87 MB peak; 22 GB cumulative)")
		for _, r := range res {
			fmt.Printf("%-9s %d calls; peak %.1f MiB; cumulative %.1f GiB; %d faults; %.2f GiB zeroed; kernel time %.1f ms\n",
				r.Kernel, r.Calls, float64(r.PeakBytes)/(1<<20), float64(r.CumulativeBytes)/(1<<30),
				r.HeapFaults, float64(r.ZeroedBytes)/(1<<30), r.KernelTimeSecs*1e3)
		}
		fmt.Println()
	}
	if sel("proxyopts") {
		res, err := mklite.ReproduceProxyOptions(cfg)
		check(err)
		fmt.Println("==== Section IV: McKernel proxy options (premap + disable-sched-yield, 16 nodes) ====")
		fmt.Println("(paper: +9% AMG 2013, +2% MiniFE)")
		for _, r := range res {
			fmt.Printf("%-9s %+.1f%% (%.4g -> %.4g)\n", r.App, r.GainPercent, r.BaselineFOM, r.OptimizedFOM)
		}
		fmt.Println()
	}
	if sel("ccsqcd-ddr") {
		// Part of the Figure 5a discussion: McKernel DDR4-only run.
		res, err := mklite.ReproduceCCSQCDDDROnly(cfg)
		check(err)
		fmt.Println("==== Section IV: CCS-QCD on McKernel, DDR4-only vs MCDRAM spill ====")
		fmt.Printf("(paper: ~5%% slowdown at 2,048 nodes)\nspill %.4g vs DDR-only %.4g: %.1f%% slowdown\n\n",
			res.SpillFOM, res.DDROnlyFOM, res.SlowdownPercent)
	}
	if sel("corespec") {
		rows, err := mklite.ReproduceCoreSpecialization(cfg)
		check(err)
		fmt.Println("==== Section III-A: core specialisation (Lulesh, 1 node) ====")
		fmt.Println("(paper: \"mOS using 64 or 66 cores beats Linux on 68 cores\")")
		for _, r := range rows {
			fmt.Printf("%-38s %10.4g (%.1f%%)\n", r.Config, r.FOM, r.Percent)
		}
		fmt.Println()
	}
	if sel("quadrant") {
		rows, err := mklite.ReproduceQuadrant(cfg)
		check(err)
		fmt.Println("==== Section III-B: clustering-mode trade-off (CCS-QCD, 64 nodes) ====")
		for _, r := range rows {
			fmt.Printf("%-36s %10.4g (%.1f%% of SNC-4 Linux)\n", r.Config, r.FOM, r.Percent)
		}
		fmt.Println()
	}
	if sel("schedsweep") {
		figs, err := mklite.ReproduceSchedSweep(cfg)
		check(err)
		fmt.Println("==== Scheduler sweep: noise-gap % by policy x kernel x nodes ====")
		fmt.Println("(gang aligns noise windows, tickless drops the tick sources, rr pays its quantum timer)")
		for _, fig := range figs {
			fmt.Print(fig.Render())
			fmt.Println()
		}
		if *jsonOut != "" {
			out, err := json.MarshalIndent(figs, "", "  ")
			check(err)
			check(os.WriteFile(*jsonOut, append(out, '\n'), 0o644))
			fmt.Fprintf(os.Stderr, "mkexperiments: wrote %s (%d bytes)\n", *jsonOut, len(out)+1)
		}
	}
	if sel("resilience") {
		fig, err := mklite.ReproduceResilience(cfg)
		check(err)
		fmt.Println("==== Resilience: one straggler poisons the allreduce (MiniFE) ====")
		fmt.Println("(fixed per-step detour on one node; slowdown grows as the job scales out)")
		fmt.Print(fig.Render())
		fmt.Println()
	}
	if sel("facility") {
		_, rendered, err := mklite.ReproduceFacility(cfg)
		check(err)
		fmt.Println("==== Facility: kernel-selection policies at datacenter scale ====")
		fmt.Println("(same seeded job stream, same facility; only the per-job kernel choice differs)")
		fmt.Print(rendered)
		fmt.Println()
	}
	if sel("ablations") {
		rep, err := mklite.ReproduceAblations(cfg)
		check(err)
		fmt.Println("==== Design-space ablations (section II claims) ====")
		fmt.Print(rep.Rendered)
		fmt.Println()
	}
}

// printCounters renders a figure's aggregated mechanism counters (set only
// when -counters is active).
func printCounters(fig mklite.Figure) {
	if len(fig.Counters) > 0 {
		fmt.Printf("mechanism counters across all %s runs:\n", fig.ID)
		fmt.Print(mklite.FormatCounters(fig.Counters))
	}
	if fig.MetricsText != "" {
		fmt.Printf("metrics profile across all %s runs:\n", fig.ID)
		fmt.Print(fig.MetricsText)
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "mkexperiments:", err)
		os.Exit(1)
	}
}
