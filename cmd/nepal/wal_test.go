package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/graph"
	"repro/internal/netmodel"
	"repro/internal/temporal"
	"repro/internal/wal"
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

// TestFsckCatchesBrokenVersions hand-breaks a store once per rule of the
// version representation and wants fsck to refuse it, naming the rule.
// A log can replay an update or a delete stamped before the element's
// last start: fsck lists the violation. A checkpoint can hold a version
// that never closes before the last one (the next starts at Forever):
// recovery refuses it, naming the violation.
func TestFsckCatchesBrokenVersions(t *testing.T) {
	host := graph.Fields{"id": 1, "name": "h", "rack": "r", "status": "Active"}
	insert := &graph.Mutation{Op: graph.OpInsertNode, UID: 1, Class: "ComputeHost", Fields: host, At: 200}
	logged := func(t *testing.T, ms ...*graph.Mutation) string {
		dir := t.TempDir()
		mgr, _, err := wal.Open(dir, graph.NewStore(netmodel.MustSchema(), nil, nil), wal.Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range ms {
			frames, err := wal.AppendGroup(nil, []*graph.Mutation{m})
			if err == nil {
				err = mgr.AppendFrames(frames, 1)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := mgr.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	checkpointed := func(t *testing.T) string {
		dir := t.TempDir()
		fields, err := codec.AppendFields(nil, host)
		if err != nil {
			t.Fatal(err)
		}
		obj := binary.AppendUvarint(nil, 1) // uid gap
		obj = codec.AppendString(obj, "ComputeHost")
		obj = append(obj, 0, 0, 2) // src, dst, two versions
		obj = binary.AppendUvarint(binary.AppendVarint(obj, 100), 0)
		obj = append(obj, fields...) // open, yet not the last
		obj = binary.AppendUvarint(binary.AppendVarint(obj, temporal.Forever), 0)
		obj = append(obj, fields...)
		cp := codec.AppendString(nil, graph.HistoryFormat)
		cp = append(cp, 1, 2) // one object, next_uid 2
		cp = append(binary.AppendUvarint(cp, uint64(len(obj))), obj...)
		if err := os.WriteFile(filepath.Join(dir, "checkpoint"), cp, 0o644); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	for _, tc := range []struct {
		name string
		dir  func(t *testing.T) string
		want string
	}{
		{"starts descend", func(t *testing.T) string {
			return logged(t, insert, &graph.Mutation{Op: graph.OpUpdate, UID: 1, Fields: host, At: 100})
		}, "[version-order] uid 1: version 1 starts before version 0"},
		{"end before last start", func(t *testing.T) string {
			return logged(t, insert, &graph.Mutation{Op: graph.OpDelete, UID: 1, At: 100})
		}, "[version-order] uid 1: end 100 precedes the last version's start 200"},
		{"non-final open", checkpointed, "[open-version] uid 1: non-final version 0 is open"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(options{model: "netmodel", backend: "gremlin", walDir: tc.dir(t), fsck: true, out: &out})
			if err == nil || !strings.Contains(err.Error()+out.String(), tc.want) {
				t.Fatalf("fsck answered %v\n%s\nwant a failure naming %q", err, out.String(), tc.want)
			}
		})
	}
}
