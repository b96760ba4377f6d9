package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mklite/internal/metrics"
	"mklite/internal/obs"
	"mklite/internal/trace"
)

func counterDoc(t *testing.T, brk int64) []byte {
	c := trace.NewCounters()
	c.Add("syscall.brk", brk)
	var b bytes.Buffer
	if err := c.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func metricsDoc(t *testing.T, compute int64) []byte {
	r := metrics.NewRegistry()
	r.AddPhase("compute", compute)
	var b bytes.Buffer
	if err := r.Report().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func decisionsDoc(t *testing.T, job int) []byte {
	l := obs.NewDecisionLog()
	l.Record(obs.Decision{Job: job, Kind: obs.KindFIFO, Kernel: "McKernel", Nodes: []int{0}})
	out, err := l.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func traceDoc() []byte {
	evs := trace.NewEvents(0)
	sink := trace.NewSink(nil, evs)
	sink.Begin(0, 0, 0, "step", "cluster")
	sink.End(1000, 0, 0, "step", "cluster")
	return evs.JSON()
}

// runWith writes each document to a temp file and runs the mkobs command
// line verb, files..., returning the exit status and the combined output.
func runWith(t *testing.T, verb string, docs ...[]byte) (int, string) {
	t.Helper()
	args := []string{verb}
	for i, d := range docs {
		p := filepath.Join(t.TempDir(), "doc"+string(rune('a'+i))+".json")
		if err := os.WriteFile(p, d, 0o644); err != nil {
			t.Fatal(err)
		}
		args = append(args, p)
	}
	var out bytes.Buffer
	code := run(args, &out, &out)
	return code, out.String()
}

// TestDiffExitStatus: diff exits 0 on identical artifacts and 1 on
// differing ones, for every schema diff serves.
func TestDiffExitStatus(t *testing.T) {
	for _, tc := range []struct {
		schema    string
		same, alt []byte
	}{
		{trace.CountersSchema, counterDoc(t, 3028), counterDoc(t, 7526)},
		{metrics.Schema, metricsDoc(t, 100), metricsDoc(t, 150)},
		{obs.DecisionsSchema, decisionsDoc(t, 1), decisionsDoc(t, 2)},
	} {
		if code, out := runWith(t, "diff", tc.same, tc.same); code != 0 {
			t.Errorf("%s: identical diff exit %d, want 0:\n%s", tc.schema, code, out)
		}
		if code, out := runWith(t, "diff", tc.same, tc.alt); code != 1 {
			t.Errorf("%s: differing diff exit %d, want 1:\n%s", tc.schema, code, out)
		}
	}
}

// TestDispatch: each verb reaches its reader through the artifact's schema;
// an unknown schema, a verb the schema lacks and mixed schemas are named
// errors with exit status 2.
func TestDispatch(t *testing.T) {
	for _, tc := range []struct {
		verb string
		docs [][]byte
		code int
		want string
	}{
		{"validate", [][]byte{traceDoc()}, 0, "valid mklite-trace/v1"},
		{"flame", [][]byte{traceDoc()}, 0, "pid0/tid0;step 1000"},
		{"report", [][]byte{metricsDoc(t, 100)}, 0, "compute"},
		{"validate", [][]byte{[]byte(`{"traceEvents":[{"name":"x","ph":"E","ts":0,"pid":0,"tid":0}],"otherData":{"schema":"mklite-trace/v1"}}`)}, 1, "invalid"},
		{"diff", [][]byte{[]byte(`{"schema":"mklite-bogus/v1"}`), []byte(`{"schema":"mklite-bogus/v1"}`)}, 2, `unknown schema "mklite-bogus/v1"`},
		{"report", [][]byte{counterDoc(t, 1)}, 2, "mklite-counters/v1 has no report verb"},
		{"diff", [][]byte{counterDoc(t, 1), metricsDoc(t, 1)}, 2, "but"},
		{"validate", [][]byte{[]byte(`{"jobs":3}`)}, 2, "names no schema"},
		{"diff", [][]byte{counterDoc(t, 1)}, 2, "takes 2 artifact"},
	} {
		code, out := runWith(t, tc.verb, tc.docs...)
		if code != tc.code || !strings.Contains(out, tc.want) {
			t.Errorf("%s: exit %d, want %d with %q in:\n%s", tc.verb, code, tc.code, tc.want, out)
		}
	}
	if code := run([]string{"run"}, io.Discard, io.Discard); code != 2 {
		t.Errorf("mkobs run: exit %d, want 2 (no such subcommand)", code)
	}
}

// FuzzSchemaOf: the sniffer never panics, names a schema whenever it
// succeeds, and agrees with every typed reader that accepts the document.
func FuzzSchemaOf(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := schemaOf(data)
		if err != nil {
			return
		}
		if s == "" {
			t.Fatal("empty schema without error")
		}
		agree := func(schema string, err error) {
			if err == nil && schema != s {
				t.Fatalf("sniffed %q but the %s reader accepts %q", s, schema, data)
			}
		}
		_, err = trace.ReadCounters(data)
		agree(trace.CountersSchema, err)
		_, _, err = trace.ParseEvents(data)
		agree(trace.EventsSchema, err)
		_, err = metrics.ReadReport(data)
		agree(metrics.Schema, err)
		_, err = obs.ReadDecisions(data)
		agree(obs.DecisionsSchema, err)
	})
}
