package main

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wal"
)

// flushDelay is the modelled device's flush time. The sandbox's real
// disk flushes in 100-170 µs at the median and moves 70% between adjacent
// seconds, which made every WAL throughput number swing 17-25% between
// runs; a fixed delay keeps the flush count visible in wall time and
// repeats to within a few microseconds.
const flushDelay = 200 * time.Microsecond

// flushDevice is the storage device under the write-ahead log, modelled:
// wal.Options.OpenFile hands the log flushFiles that write through to a
// real file (so recovery reads real bytes back) but answer Sync with a
// fixed yield-spin instead of the host's fsync. It counts what the log
// asked of it — the exact per-layer counts — and, when a tracer is set,
// records a span per write and per flush under the ingest in flight.
type flushDevice struct {
	// delayNS is 0 while a fixture loads and flushDelay for the measured
	// phase.
	delayNS atomic.Int64

	logBytes, logSyncs atomic.Int64
	checkpointBytes    atomic.Int64

	mu      sync.Mutex
	syncDur []time.Duration // measured Sync durations while the delay is on

	// tr and curOp parent device spans to the in-flight ingest; the
	// workloads have a single writer, so one slot suffices.
	tr    atomic.Pointer[tracer]
	curOp atomic.Pointer[spanRef]
}

func (d *flushDevice) on()  { d.delayNS.Store(int64(flushDelay)) }
func (d *flushDevice) off() { d.delayNS.Store(0) }

// deviceCounts is a snapshot of the device's exact counters.
type deviceCounts struct{ bytes, syncs, checkpointBytes int64 }

func (d *flushDevice) counts() deviceCounts {
	return deviceCounts{d.logBytes.Load(), d.logSyncs.Load(), d.checkpointBytes.Load()}
}

func (c deviceCounts) sub(o deviceCounts) deviceCounts {
	return deviceCounts{c.bytes - o.bytes, c.syncs - o.syncs, c.checkpointBytes - o.checkpointBytes}
}

// takeSyncDurations returns and clears the measured flush durations.
func (d *flushDevice) takeSyncDurations() []time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := d.syncDur
	d.syncDur = nil
	return out
}

// OpenFile is the wal.Options.OpenFile hook.
func (d *flushDevice) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	base := filepath.Base(name)
	kind := fileOther
	switch {
	case strings.HasPrefix(base, "wal-") && strings.HasSuffix(base, ".log"):
		kind = fileLog
	case strings.HasPrefix(base, "checkpoint"):
		kind = fileCheckpoint
	}
	return &flushFile{File: f, d: d, kind: kind}, nil
}

const (
	fileOther = iota
	fileLog
	fileCheckpoint
)

type flushFile struct {
	*os.File
	d    *flushDevice
	kind int
}

func (f *flushFile) Write(p []byte) (int, error) {
	tr := f.d.tr.Load()
	var start time.Time
	if tr != nil && f.kind == fileLog {
		start = time.Now()
	}
	n, err := f.File.Write(p)
	switch f.kind {
	case fileLog:
		f.d.logBytes.Add(int64(n))
		if tr != nil {
			tr.child(f.d.curOp.Load(), "wal.write", start, time.Now())
		}
	case fileCheckpoint:
		f.d.checkpointBytes.Add(int64(n))
	}
	return n, err
}

// Sync is the modelled flush: counted, then a fixed delay in place of the
// host's fsync. The log directory is inside the checkout, because the
// driver confines a benchmark to it, and so on whatever disk the checkout
// is on; there the host fsync is the noisy part (100-170 µs, moving 70%
// between adjacent seconds) and is left out. The written bytes are in the
// page cache, which is what a reopen reads back. (--out names another
// place, /dev/shm say; the flush is modelled the same way there.) The
// delay yield-spins on the monotonic clock because time.Sleep(200µs)
// takes 1.1 ms here.
func (f *flushFile) Sync() error {
	delay := time.Duration(f.d.delayNS.Load())
	if f.kind == fileLog {
		f.d.logSyncs.Add(1)
	}
	if delay == 0 {
		return nil
	}
	start := time.Now()
	for time.Since(start) < delay {
		runtime.Gosched()
	}
	end := time.Now()
	if f.kind == fileLog {
		f.d.mu.Lock()
		f.d.syncDur = append(f.d.syncDur, end.Sub(start))
		f.d.mu.Unlock()
		if tr := f.d.tr.Load(); tr != nil {
			tr.child(f.d.curOp.Load(), "wal.fsync", start, end)
		}
	}
	return nil
}
