// Command mkbench judges wall-clock benchmark artifacts. It is the CI
// bench-regression gate: the bench ledger emits BENCH.json
// ("mklite-bench/v1", best-of-N seconds per mode with rep count and
// spread), and mkbench compares a fresh measurement against the
// checked-in baseline with benchfmt's one judgment band — a mode fails
// when it more than doubles beyond both runs' recorded spreads, an
// overhead percentage when it grows by more than 10 points, a speedup
// when it halves.
//
// Usage:
//
//	mkbench compare [-budget name=max]... baseline.json current.json
//	mkbench show BENCH.json
//	mkbench trend BENCH_PR2.json BENCH_PR3.json ... BENCH.json
//
// compare exits 1 on a regression or when a -budget ceiling on a derived
// metric of the current file is exceeded. trend renders the history,
// oldest first, and flags its regression steps without failing.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"mklite/internal/benchfmt"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	args := os.Args[2:]
	switch os.Args[1] {
	case "compare":
		compare(args)
	case "show":
		if len(args) != 1 {
			fatal(fmt.Errorf("show needs exactly one file, got %d args", len(args)))
		}
		f := read(args[0], benchfmt.Read)
		// A self-comparison renders every row with zero deltas — one table
		// formatter for both subcommands.
		fmt.Printf("%s: %s, GOMAXPROCS=%d\n", args[0], f.Figure, f.Maxprocs)
		fmt.Print(benchfmt.Compare(f, f).Report)
	case "trend":
		trend(args)
	case "-h", "-help", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "mkbench: unknown subcommand %q\n\n", os.Args[1])
		usage()
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  mkbench compare [-budget name=max]... baseline.json current.json
  mkbench show file.json
  mkbench trend BENCH_PR2.json BENCH_PR3.json ... BENCH.json
`)
	os.Exit(2)
}

// budgets collects repeated -budget name=max flags.
type budgets []struct {
	name string
	max  float64
}

func (bs *budgets) String() string { return fmt.Sprintf("%d budgets", len(*bs)) }

func (bs *budgets) Set(v string) error {
	name, maxStr, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("budget %q: want name=max", v)
	}
	max, err := strconv.ParseFloat(maxStr, 64)
	if err != nil {
		return fmt.Errorf("budget %q: %w", v, err)
	}
	*bs = append(*bs, struct {
		name string
		max  float64
	}{name, max})
	return nil
}

func compare(args []string) {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	var buds budgets
	fs.Var(&buds, "budget", "absolute ceiling on a derived metric of the current file, name=max (repeatable)")
	fs.Parse(args)
	if fs.NArg() != 2 {
		fatal(fmt.Errorf("compare needs a baseline and a current file, got %d args", fs.NArg()))
	}
	oldF, newF := read(fs.Arg(0), benchfmt.Read), read(fs.Arg(1), benchfmt.Read)

	res := benchfmt.Compare(oldF, newF)
	fmt.Printf("mkbench compare: %s vs %s (tol %d%%, %dpp)\n", fs.Arg(0), fs.Arg(1), benchfmt.TolPercent, benchfmt.TolPoints)
	fmt.Print(res.Report)

	failures := res.Regressions
	for _, bud := range buds {
		if msg := newF.CheckBudget(bud.name, bud.max); msg != "" {
			failures = append(failures, msg)
		}
	}
	if len(failures) > 0 {
		fmt.Println("\nFAIL:")
		for _, f := range failures {
			fmt.Println("  " + f)
		}
		os.Exit(1)
	}
	fmt.Println("\nPASS: no regressions beyond tolerance")
}

// trend renders the cross-PR perf trajectory from the given files in the
// order given (oldest first), flagging steps that regress beyond their
// band. Legacy pre-schema files (BENCH_PR2/PR3) are accepted via the
// lenient reader. History is informational: trend never fails on it.
func trend(args []string) {
	if len(args) < 1 {
		fatal(fmt.Errorf("trend needs at least one benchmark file"))
	}
	entries := make([]benchfmt.TrendEntry, 0, len(args))
	for _, path := range args {
		entries = append(entries, benchfmt.TrendEntry{
			Label: strings.TrimSuffix(filepath.Base(path), ".json"),
			File:  read(path, benchfmt.ReadLenient),
		})
	}
	res := benchfmt.Trend(entries)
	fmt.Printf("mkbench trend: %d files (tol %d%%, %dpp)\n", len(entries), benchfmt.TolPercent, benchfmt.TolPoints)
	fmt.Print(res.Report)
	if len(res.Regressions) > 0 {
		fmt.Printf("\n%d regression step(s) in the history:\n", len(res.Regressions))
		for _, r := range res.Regressions {
			fmt.Println("  " + r)
		}
		return
	}
	fmt.Println("\nno regressions beyond tolerance across the history")
}

func read(path string, parse func([]byte) (*benchfmt.File, error)) *benchfmt.File {
	data, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	f, err := parse(data)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", path, err))
	}
	return f
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mkbench:", err)
	os.Exit(1)
}
