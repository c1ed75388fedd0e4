package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunQuickBench(t *testing.T) {
	if testing.Short() {
		t.Skip("bench harness run")
	}
	var out bytes.Buffer
	if err := run(options{backend: "relational", instances: 2, services: 600, out: &out}); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"Table 1. Query response times",
		"Table 2. Query response times",
		"§6 ablation",
		"§6 storage",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q", want)
		}
	}
}
