package main

import (
	"bytes"
	"os"
	"testing"
)

// TestOutput runs the example and holds what it prints to
// testdata/output.golden.
func TestOutput(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/output.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		t.Errorf("output differs from testdata/output.golden; got:\n%s", got)
	}
}
