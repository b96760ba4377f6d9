// Command mkobs reads mklite's observation artifacts (see
// docs/OBSERVABILITY.md). The commands that run things record them: mkrun
// writes a run's trace, counters and metrics, and mkfleet
// writes a facility run's timeline, decision log and -json result. Every
// artifact but the fleet result names its format in a schema field, and
// validate, diff, report and flame dispatch on that field:
//
//	mkobs validate run.trace.json                 # mklite-trace/v1 (run trace or facility timeline)
//	mkobs diff old.counters.json new.counters.json  # mklite-counters/v1, -metrics/v1 or -decisions/v1
//	mkobs report run.metrics.json                 # mklite-metrics/v1
//	mkobs flame run.trace.json > run.folded       # mklite-trace/v1
//	mkobs check -slo 'utilization_pct>=60;wait_p99_sec<=2' result.json
//
// check judges a saved mkfleet -json result against an SLO spec.
//
// Exit status: 0 when the artifacts pass (valid, identical, SLO met), 1 when
// they do not (invalid, different, SLO failed), 2 on a usage or read error.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"strings"

	"mklite/internal/fleet"
	"mklite/internal/metrics"
	"mklite/internal/obs"
	"mklite/internal/trace"
)

// artifact is one input file and its bytes.
type artifact struct {
	path string
	data []byte
}

// A reader runs one verb over artifacts of one schema, writes its verdict
// or rendering to w, and reports whether the artifacts pass.
type reader func(w io.Writer, docs []artifact) (pass bool, err error)

// verbs is the dispatch table: for each schema-dispatched verb, the number
// of artifacts it takes and the reader for every schema it serves.
var verbs = map[string]struct {
	args     int
	bySchema map[string]reader
}{
	"validate": {1, map[string]reader{trace.EventsSchema: validateTrace}},
	"diff": {2, map[string]reader{
		trace.CountersSchema: diffCounters,
		metrics.Schema:       diffMetrics,
		obs.DecisionsSchema:  diffDecisions,
	}},
	"report": {1, map[string]reader{metrics.Schema: reportMetrics}},
	"flame":  {1, map[string]reader{trace.EventsSchema: flameTrace}},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one mkobs command line and returns its exit status.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		return usage(stderr)
	}
	name, args := args[0], args[1:]
	var pass bool
	var err error
	switch _, ok := verbs[name]; {
	case name == "check":
		pass, err = check(args, stdout, stderr)
	case ok:
		pass, err = dispatch(name, args, stdout)
	default:
		if name != "help" && name != "-h" && name != "-help" && name != "--help" {
			fmt.Fprintf(stderr, "mkobs: unknown subcommand %q\n\n", name)
		}
		return usage(stderr)
	}
	switch {
	case err != nil:
		fmt.Fprintln(stderr, "mkobs:", err)
		return 2
	case !pass:
		return 1
	}
	return 0
}

func usage(w io.Writer) int {
	fmt.Fprint(w, `usage:
  mkobs validate trace.json              (mklite-trace/v1)
  mkobs diff old.json new.json           (mklite-counters/v1, mklite-metrics/v1, mklite-decisions/v1)
  mkobs report metrics.json              (mklite-metrics/v1)
  mkobs flame trace.json                 (mklite-trace/v1; folded stacks to stdout)
  mkobs check -slo spec result.json      (saved mkfleet -json result)
`)
	return 2
}

// dispatch reads the artifacts, checks that they share one schema and runs
// the verb's reader for it.
func dispatch(verb string, paths []string, w io.Writer) (bool, error) {
	v := verbs[verb]
	if len(paths) != v.args {
		return false, fmt.Errorf("%s takes %d artifact file(s), got %d", verb, v.args, len(paths))
	}
	docs := make([]artifact, len(paths))
	var schema string
	for i, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return false, err
		}
		s, err := schemaOf(data)
		if err != nil {
			return false, fmt.Errorf("%s: %w", path, err)
		}
		if i > 0 && s != schema {
			return false, fmt.Errorf("%s is %s but %s is %s", paths[0], schema, path, s)
		}
		schema = s
		docs[i] = artifact{path, data}
	}
	read, ok := v.bySchema[schema]
	if !ok {
		served := slices.Sorted(maps.Keys(v.bySchema))
		if !knownSchema(schema) {
			return false, fmt.Errorf("%s: unknown schema %q (%s reads %s)", paths[0], schema, verb, strings.Join(served, ", "))
		}
		return false, fmt.Errorf("%s: %s has no %s verb (%s reads %s)", paths[0], schema, verb, verb, strings.Join(served, ", "))
	}
	return read(w, docs)
}

func knownSchema(schema string) bool {
	for _, v := range verbs {
		if _, ok := v.bySchema[schema]; ok {
			return true
		}
	}
	return false
}

// schemaOf returns the schema an artifact names: its top-level "schema"
// field, or otherData.schema for a Chrome trace-event export. An artifact
// naming both, or neither, is an error.
func schemaOf(data []byte) (string, error) {
	var doc struct {
		Schema    string `json:"schema"`
		OtherData struct {
			Schema string `json:"schema"`
		} `json:"otherData"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return "", fmt.Errorf("not a schema-tagged JSON artifact: %w", err)
	}
	switch top, trc := doc.Schema, doc.OtherData.Schema; {
	case top != "" && trc != "":
		return "", fmt.Errorf("names two schemas, %q and otherData %q", top, trc)
	case top != "":
		return top, nil
	case trc != "":
		return trc, nil
	}
	return "", errors.New("names no schema (top-level or otherData.schema)")
}

// readAll parses every artifact with one typed reader, naming the file in
// any error.
func readAll[T any](docs []artifact, read func([]byte) (T, error)) ([]T, error) {
	out := make([]T, len(docs))
	for i, d := range docs {
		v, err := read(d.data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", d.path, err)
		}
		out[i] = v
	}
	return out, nil
}

func validateTrace(w io.Writer, docs []artifact) (bool, error) {
	if err := trace.Validate(docs[0].data); err != nil {
		fmt.Fprintf(w, "%s: invalid: %v\n", docs[0].path, err)
		return false, nil
	}
	fmt.Fprintf(w, "%s: valid %s\n", docs[0].path, trace.EventsSchema)
	return true, nil
}

func diffCounters(w io.Writer, docs []artifact) (bool, error) {
	c, err := readAll(docs, trace.ReadCounters)
	if err != nil {
		return false, err
	}
	rows := trace.DiffCounters(c[0], c[1])
	if len(rows) == 0 {
		fmt.Fprintln(w, "no counter differences")
		return true, nil
	}
	fmt.Fprintf(w, "%-28s %14s %14s %14s\n", "counter", "old", "new", "delta")
	for _, r := range rows {
		fmt.Fprintf(w, "%-28s %14d %14d %+14d\n", r.Name, r.Old, r.New, r.Delta())
	}
	return false, nil
}

func diffMetrics(w io.Writer, docs []artifact) (bool, error) {
	reps, err := readAll(docs, metrics.ReadReport)
	if err != nil {
		return false, err
	}
	out, same := metrics.Diff(reps[0], reps[1])
	fmt.Fprint(w, out)
	return same, nil
}

func diffDecisions(w io.Writer, docs []artifact) (bool, error) {
	logs, err := readAll(docs, obs.ReadDecisions)
	if err != nil {
		return false, err
	}
	rows := obs.DiffDecisions(logs[0], logs[1])
	if len(rows) == 0 {
		fmt.Fprintf(w, "identical: %d decisions\n", len(logs[0]))
		return true, nil
	}
	for _, row := range rows {
		fmt.Fprintln(w, row)
	}
	return false, nil
}

func reportMetrics(w io.Writer, docs []artifact) (bool, error) {
	reps, err := readAll(docs, metrics.ReadReport)
	if err != nil {
		return false, err
	}
	fmt.Fprint(w, reps[0].Render())
	return true, nil
}

func flameTrace(w io.Writer, docs []artifact) (bool, error) {
	folded, err := readAll(docs, metrics.FoldedFromJSON)
	if err != nil {
		return false, err
	}
	fmt.Fprint(w, folded[0])
	return true, nil
}

// check judges a saved fleet.Result with its own -slo rules, through the
// same metric map the in-run watchdog uses (Result.SLOValues), whatever
// SLO report the artifact already carries.
func check(args []string, w, stderr io.Writer) (bool, error) {
	fs := flag.NewFlagSet("check", flag.ContinueOnError)
	fs.SetOutput(stderr)
	sloSpec := fs.String("slo", "", "SLO spec to enforce (required)")
	if err := fs.Parse(args); err != nil {
		return false, err
	}
	if fs.NArg() != 1 {
		return false, fmt.Errorf("check takes one mkfleet -json result file, got %d args", fs.NArg())
	}
	slo, err := obs.ParseSLO(*sloSpec)
	if err != nil {
		return false, err
	}
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return false, err
	}
	var res fleet.Result
	if err := json.Unmarshal(data, &res); err != nil {
		return false, fmt.Errorf("%s: %w", fs.Arg(0), err)
	}
	rep, err := slo.Eval(res.SLOValues())
	if err != nil {
		return false, err
	}
	fmt.Fprintln(w, "  slo:")
	for _, r := range rep.Results {
		verdict := "pass"
		if !r.Pass {
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "    %-4s %s%s%g (observed %g)\n", verdict, r.Metric, r.Op, r.Threshold, r.Value)
	}
	if rep.Passed {
		fmt.Fprintln(w, "  slo: PASS")
	} else {
		fmt.Fprintln(w, "  slo: FAIL")
	}
	return rep.Passed, nil
}
