package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"mklite"
)

// TestWriteTraceValidates: -trace-json writes a run's export only when the
// validator mkobs applies accepts it; a rejected trace leaves no file.
func TestWriteTraceValidates(t *testing.T) {
	res, err := mklite.Run("minife", mklite.McKernel, 2, 1,
		&mklite.Options{Observe: mklite.Observe{Events: true}})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	good := filepath.Join(dir, "good.trace.json")
	if err := writeTrace(good, res.TraceJSON); err != nil {
		t.Fatalf("valid trace refused: %v", err)
	}
	if got, err := os.ReadFile(good); err != nil || !bytes.Equal(got, res.TraceJSON) {
		t.Fatalf("written trace differs from the export (err %v)", err)
	}

	// An E with no open span: well-formed JSON, unbalanced trace.
	bad := []byte(`{"traceEvents":[{"name":"step","cat":"cluster","ph":"E","ts":1.000,"pid":0,"tid":0}],` +
		`"displayTimeUnit":"ns","otherData":{"schema":"mklite-trace/v1","dropped":0}}`)
	badPath := filepath.Join(dir, "bad.trace.json")
	if err := writeTrace(badPath, bad); err == nil {
		t.Fatal("unbalanced trace written without error")
	}
	if _, err := os.Stat(badPath); !os.IsNotExist(err) {
		t.Fatalf("rejected trace left a file behind (stat err %v)", err)
	}
}
