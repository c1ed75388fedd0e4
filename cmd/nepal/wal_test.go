package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/graph"
)

func TestRunWALPersistAndRecover(t *testing.T) {
	dir := t.TempDir()
	q := "Retrieve P From PATHS P Where P MATCHES VNF()->[Vertical()]{1,6}->Host()"

	// First run: build the demo into a WAL-backed store.
	var out bytes.Buffer
	if err := run(options{model: "netmodel", demo: true, backend: "gremlin",
		walDir: dir, q: q, out: &out}); err != nil {
		t.Fatal(err)
	}
	first := out.String()
	if !strings.Contains(first, "rows)") {
		t.Fatalf("first run produced no rows: %q", first)
	}

	// Second run: no -demo — the topology must come back from the log.
	out.Reset()
	if err := run(options{model: "netmodel", backend: "gremlin",
		walDir: dir, q: q, out: &out}); err != nil {
		t.Fatal(err)
	}
	if out.String() != first {
		t.Errorf("recovered run differs:\nfirst: %q\nsecond: %q", first, out.String())
	}
}

func TestRunCheckpointFlag(t *testing.T) {
	dir := t.TempDir()
	if err := run(options{model: "netmodel", demo: true, walDir: dir,
		backend: "gremlin", checkpoint: true, out: &bytes.Buffer{}}); err != nil {
		t.Fatal(err)
	}
	// After the checkpoint, a recovery-only run still sees the demo.
	var out bytes.Buffer
	q := "Retrieve P From PATHS P Where P MATCHES VNF()->[Vertical()]{1,6}->Host()"
	if err := run(options{model: "netmodel", backend: "gremlin",
		walDir: dir, q: q, out: &out}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "(0 rows)") {
		t.Errorf("post-checkpoint recovery lost the demo: %q", out.String())
	}

	if err := run(options{model: "netmodel", checkpoint: true, out: &bytes.Buffer{}}); err == nil {
		t.Error("-checkpoint without -wal-dir accepted")
	}
}

func TestRunFsckFlag(t *testing.T) {
	dir := t.TempDir()
	if err := run(options{model: "netmodel", demo: true, walDir: dir,
		backend: "gremlin", checkpoint: true, out: &bytes.Buffer{}}); err != nil {
		t.Fatal(err)
	}

	// A recovered store passes fsck.
	var out bytes.Buffer
	if err := run(options{model: "netmodel", backend: "gremlin",
		walDir: dir, fsck: true, out: &out}); err != nil {
		t.Fatalf("fsck on healthy store: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "fsck: ok") {
		t.Errorf("fsck output missing ok line: %q", out.String())
	}
	if want := "fsck: loaded checkpoint format " + graph.HistoryFormat; !strings.Contains(out.String(), want) {
		t.Errorf("fsck output missing %q: %q", want, out.String())
	}

	// fsck works without a WAL too (in-memory demo).
	out.Reset()
	if err := run(options{model: "netmodel", demo: true, backend: "gremlin",
		fsck: true, out: &out}); err != nil {
		t.Fatalf("fsck on demo store: %v", err)
	}
}

// TestFsckRefusesRetiredFormat: fsck over a WAL directory whose
// checkpoint is in the retired JSON format fails with a
// *graph.FormatError naming the file, and leaves the file as it was.
func TestFsckRefusesRetiredFormat(t *testing.T) {
	dir := t.TempDir()
	cp := filepath.Join(dir, "checkpoint")
	old := []byte(`{"format":"nepal-history/1","objects":0,"next_uid":1}` + "\n")
	if err := os.WriteFile(cp, old, 0o644); err != nil {
		t.Fatal(err)
	}
	err := run(options{model: "netmodel", walDir: dir, fsck: true, out: &bytes.Buffer{}})
	var fe *graph.FormatError
	if !errors.As(err, &fe) || fe.File != cp || fe.Got != "nepal-history/1" {
		t.Fatalf("fsck over a nepal-history/1 checkpoint = %v, want a FormatError naming %s", err, cp)
	}
	if got, err := os.ReadFile(cp); err != nil || !bytes.Equal(got, old) {
		t.Fatalf("fsck changed the checkpoint (err %v): %q", err, got)
	}
}
