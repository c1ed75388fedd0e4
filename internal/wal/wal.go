// Package wal gives the temporal graph store durability: an append-only,
// CRC-checksummed, length-prefixed log of every store mutation, periodic
// checkpoints in the existing history format, and crash recovery that
// replays the log on top of the latest checkpoint.
//
// The durability contract is write-ahead: a Manager installed as the
// store's mutation hook appends (and, by default, fsyncs) each batch's
// group of records — one write, one sync — while the store's write lock
// is held, before the batch becomes visible in memory — so the log order
// is exactly the store's serialization order and an acknowledged write is
// always on disk.
// Because every record carries its transaction timestamp, replay through
// graph.ApplyMutation — the same validate-and-apply body as the live
// write — reproduces the identical temporal version history, not merely
// the same live state.
//
// Checkpoints rotate the log instead of blocking it: the active segment
// is sealed, a new one opened, and the store's full history is snapshotted
// while writes continue into the new segment. Replay is idempotent (the
// store skips records it already reflects), which makes the
// checkpoint/segment overlap window harmless and keeps every crash point
// of the checkpoint protocol itself recoverable. Recovery tolerates a
// torn or corrupt tail — the signature of a crash mid-append — by
// truncating the log at the start of the first group with a bad or
// missing record; corruption anywhere else is an error, never silently
// skipped.
package wal

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
)

const (
	segmentPrefix  = "wal-"
	segmentSuffix  = ".log"
	indexSuffix    = ".idx"
	checkpointName = "checkpoint"
	checkpointTemp = "checkpoint.tmp"
)

// File is the write handle the Manager appends through. *os.File satisfies
// it; fault-injection tests substitute wrappers that fail or tear writes
// (see internal/chaos).
type File interface {
	io.Writer
	Sync() error
	Truncate(size int64) error
	Close() error
}

// Options configures a Manager.
type Options struct {
	// NoSync disables the fsync after every append. The log is then only
	// as durable as the OS page cache, but appends are dramatically
	// cheaper; Checkpoint still syncs everything it writes. Tests use it
	// to keep randomized workloads fast.
	NoSync bool

	// OpenFile overrides how the Manager opens files it writes (segments,
	// sidecar and checkpoint temporaries), mirroring os.OpenFile. nil uses the
	// real filesystem. Recovery reads and renames always use the real
	// filesystem: fault injection models a crashing writer, not a lying
	// reader.
	OpenFile func(name string, flag int, perm os.FileMode) (File, error)
}

func (o Options) open(name string, flag int) (File, error) {
	if o.OpenFile != nil {
		return o.OpenFile(name, flag, 0o644)
	}
	return os.OpenFile(name, flag, 0o644)
}

// RecoveryStats reports what Open found and did while recovering.
type RecoveryStats struct {
	// CheckpointLoaded is true when a checkpoint file was restored.
	CheckpointLoaded bool
	// Segments is the number of log segments scanned.
	Segments int
	// RecordsApplied counts replayed mutations the store applied.
	RecordsApplied int
	// RecordsSkipped counts records the store already reflected (the
	// checkpoint/segment overlap window).
	RecordsSkipped int
	// TailTruncated is true when a torn or corrupt tail was cut off.
	TailTruncated bool
	// DroppedBytes is the number of tail bytes discarded by truncation.
	DroppedBytes int64
	// StaleTempRemoved is true when a leftover checkpoint temporary from
	// a crashed checkpoint was deleted.
	StaleTempRemoved bool
}

func (s RecoveryStats) String() string {
	msg := fmt.Sprintf("replayed %d records (%d already in checkpoint) from %d segments",
		s.RecordsApplied, s.RecordsSkipped, s.Segments)
	if s.CheckpointLoaded {
		msg = "loaded checkpoint, " + msg
	}
	if s.TailTruncated {
		msg += fmt.Sprintf(", truncated %d-byte torn tail", s.DroppedBytes)
	}
	return msg
}

// walObs holds the registry metrics the append, checkpoint and stream
// read paths record, resolved once by Open. The zero value (no registry)
// records nothing: nil obs metrics are no-ops.
type walObs struct {
	appends      *obs.Counter
	appendBytes  *obs.Counter
	appendErrors *obs.Counter
	fsyncs       *obs.Counter
	fsyncMS      *obs.Histogram
	checkpoints  *obs.Counter
	checkpointMS *obs.Histogram
	// groupRecords is the records per append — per sync, unless NoSync.
	groupRecords *obs.Histogram
	// streamReadBytes counts the segment bytes ReadRecords and PrefixHash
	// read: beside appendBytes, it shows whether readers re-read the log.
	streamReadBytes *obs.Counter
}

// markEvery is the spacing, in records, of a segment's sparse frame
// index: a stream read seeks to the nearest mark and walks fewer than
// markEvery frames to reach its position.
const markEvery = 64

// mark locates record start+k·markEvery of a segment (k ≥ 1): its byte
// offset in the file and the chained prefix hash before it.
type mark struct {
	off  int64
	hash uint64
}

// segMeta is the in-memory index of one on-disk segment: its sequence
// number and the global stream index of its first record. The persisted
// form is the segment's ".idx" sidecar file, written when the segment is
// created, so stream positions survive primary restarts — a follower that
// resumes "from record N" after the primary recovered gets exactly the
// records it would have gotten before the crash.
type segMeta struct {
	seq   uint64
	start uint64
	// hash is the chained prefix hash at start — the chain state after
	// folding in every record before this segment. Persisted in the
	// sidecar beside start, so lineage comparisons survive checkpoints
	// deleting the earlier segments the chain ran over.
	hash uint64
	// end is the byte length of a sealed segment; the active segment's is
	// the Manager's size.
	end int64
	// marks is the sparse frame index, one entry per markEvery records
	// (the segment start is the implicit mark 0). It is rebuilt by the
	// recovery scan and extended by Append, and only ever appended to, so
	// a reader holding a copied slice header may index below its length
	// while appends continue.
	marks []mark
}

// advance records that the segment's records now end at stream position
// pos, byte offset off, with chain hash hash there, keeping a mark every
// markEvery records.
func (s *segMeta) advance(pos uint64, off int64, hash uint64) {
	if (pos-s.start)%markEvery == 0 {
		s.marks = append(s.marks, mark{off: off, hash: hash})
	}
}

// markAt returns the nearest mark at or before stream position pos, which
// must lie in the segment: the mark's position, byte offset and hash.
func (s *segMeta) markAt(pos uint64) (at uint64, off int64, hash uint64) {
	k := min((pos-s.start)/markEvery, uint64(len(s.marks)))
	if k == 0 {
		return s.start, 0, s.hash
	}
	m := s.marks[k-1]
	return s.start + k*markEvery, m.off, m.hash
}

// Manager is an open write-ahead log bound to one directory. Its Append
// method is installed as the store's mutation hook; Checkpoint and Close
// are safe to call concurrently with appends, and ReadRecords/Snapshot
// serve the replication stream concurrently with everything else.
type Manager struct {
	dir  string
	opts Options

	// cpMu serializes checkpoints against each other.
	cpMu sync.Mutex

	mu     sync.Mutex
	f      File
	seq    uint64
	size   int64 // bytes in the active segment
	broken error // set when the log can no longer accept appends

	// segs lists every on-disk segment with its global start index,
	// ascending; the last entry is the active segment. next is the global
	// index the next appended record will take; notify is closed (and
	// replaced) on every durable append, waking long-poll readers.
	segs   []segMeta
	next   uint64
	notify chan struct{}

	// logID is the log's identity, minted when the directory is first
	// opened and persisted in it; replication feeds echo it so a follower
	// can detect being repointed at an unrelated log. It changes only via
	// AdoptStream, when a replica takes over its primary's log.
	logID string
	// epoch is the log's durable primary epoch (see epoch.go); hash is
	// the chained prefix hash at next, updated on every append.
	epoch uint64
	hash  uint64

	stats RecoveryStats
	o     walObs

	// buf is the reused encoding buffer of Append, under mu.
	buf []byte
}

// Open recovers the log directory into st (which must be empty) and
// returns a Manager appending to it: load the checkpoint if one exists,
// replay every segment in order, truncate a torn tail, and open the
// newest segment for appending. The caller wires durability up with
// st.SetMutationHook(mgr.Append).
//
// The Manager records into st's registry under "wal.*" names: appends,
// appended bytes, fsyncs, append errors, checkpoints and their duration,
// the segment bytes stream reads take off the disk, the stream's next and
// base indexes read at scrape time, and this recovery's outcome counters.
func Open(dir string, st *graph.Store, opts Options) (*Manager, RecoveryStats, error) {
	var stats RecoveryStats
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, stats, fmt.Errorf("wal: creating directory: %w", err)
	}
	logID, err := loadOrMintLogID(dir)
	if err != nil {
		return nil, stats, err
	}
	epoch, err := loadOrMintEpoch(dir)
	if err != nil {
		return nil, stats, err
	}

	// A checkpoint temporary is a checkpoint that never committed: the
	// rename is the commit point, so the temp is garbage.
	tmp := filepath.Join(dir, checkpointTemp)
	if _, err := os.Stat(tmp); err == nil {
		if err := os.Remove(tmp); err != nil {
			return nil, stats, fmt.Errorf("wal: removing stale checkpoint temp: %w", err)
		}
		stats.StaleTempRemoved = true
	}

	cp := filepath.Join(dir, checkpointName)
	if f, err := os.Open(cp); err == nil {
		err = st.LoadHistory(f)
		f.Close()
		if err != nil {
			graph.SetFormatFile(err, cp)
			return nil, stats, fmt.Errorf("wal: loading checkpoint: %w", err)
		}
		stats.CheckpointLoaded = true
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, stats, fmt.Errorf("wal: opening checkpoint: %w", err)
	}

	seqs, err := listSegments(dir)
	if err != nil {
		return nil, stats, err
	}
	stats.Segments = len(seqs)

	// Replay each segment in order, reconstructing its global start index
	// and prefix-hash chain state: trust the ".idx" sidecar when present
	// (it survives checkpoints deleting earlier segments — for the oldest
	// on-disk segment it is the only source), and derive by chaining
	// record counts/CRCs when not (a segment never rotated to or adopted,
	// or a sidecar lost to a crash mid-rotation; safe because the one
	// sidecar that is ever load-bearing, the rotated segment's, is made
	// durable inside Checkpoint before its predecessors are pruned, so a
	// sidecar-less oldest segment always starts the stream at zero).
	segs := make([]segMeta, len(seqs))
	var start uint64
	hash := PrefixHashSeed
	for i, seq := range seqs {
		s, h, ok, err := readSegIdx(dir, seq)
		if err != nil {
			return nil, stats, err
		}
		if ok {
			if i > 0 && s != start {
				return nil, stats, fmt.Errorf("wal: segment %d index sidecar says start %d, chained replay says %d",
					seq, s, start)
			}
			if i > 0 && h != hash {
				return nil, stats, fmt.Errorf("wal: segment %d index sidecar says prefix hash %016x, chained replay says %016x",
					seq, h, hash)
			}
			start, hash = s, h
		}
		segs[i] = segMeta{seq: seq, start: start, hash: hash}
		if start, hash, err = replaySegment(dir, i == len(seqs)-1, st, &stats, &segs[i]); err != nil {
			return nil, stats, err
		}
	}

	// A log checkpoints before it prunes the segments a checkpoint holds,
	// so an oldest segment starting past zero with no checkpoint beneath
	// it is a replica's AdoptStream that crashed before its checkpoint
	// committed. It holds no records: it opens empty at position 0.
	if len(segs) > 0 && segs[0].start > 0 && !stats.CheckpointLoaded {
		if len(segs) > 1 || start != segs[0].start {
			return nil, stats, fmt.Errorf("wal: log starts at stream position %d but holds no checkpoint", segs[0].start)
		}
		if err := os.Remove(segmentIdxPath(dir, segs[0].seq)); err != nil {
			return nil, stats, fmt.Errorf("wal: removing an uncommitted adoption: %w", err)
		}
		segs[0].start, segs[0].hash, segs[0].marks = 0, PrefixHashSeed, nil
		start, hash = 0, PrefixHashSeed
	}
	if len(segs) == 0 {
		segs = []segMeta{{seq: 1, start: 0, hash: PrefixHashSeed}}
	}
	active := segs[len(segs)-1]
	f, err := opts.open(segmentPath(dir, active.seq), os.O_WRONLY|os.O_CREATE|os.O_APPEND)
	if err != nil {
		return nil, stats, fmt.Errorf("wal: opening active segment: %w", err)
	}
	reg := st.Registry()
	mgr := &Manager{dir: dir, opts: opts, f: f, seq: active.seq, size: active.end, stats: stats,
		segs: segs, next: start, hash: hash, epoch: epoch,
		notify: make(chan struct{}), logID: logID,
		o: walObs{
			appends:         reg.Counter("wal.appends"),
			appendBytes:     reg.Counter("wal.append_bytes"),
			appendErrors:    reg.Counter("wal.append_errors"),
			fsyncs:          reg.Counter("wal.fsyncs"),
			fsyncMS:         reg.Histogram("wal.fsync_ms"),
			checkpoints:     reg.Counter("wal.checkpoints"),
			checkpointMS:    reg.Histogram("wal.checkpoint_ms"),
			groupRecords:    reg.HistogramBuckets("wal.group_records", obs.DefaultSizeBuckets),
			streamReadBytes: reg.Counter("wal.stream_read_bytes"),
		}}
	reg.GaugeFunc("wal.next_index", func() float64 { return float64(mgr.NextIndex()) })
	reg.GaugeFunc("wal.base_index", func() float64 { return float64(mgr.BaseIndex()) })
	reg.Counter("wal.recoveries").Add(1)
	reg.Counter("wal.recovered_records").Add(int64(stats.RecordsApplied))
	reg.Counter("wal.recovery_skipped_records").Add(int64(stats.RecordsSkipped))
	if stats.TailTruncated {
		reg.Counter("wal.tail_truncations").Add(1)
	}
	return mgr, stats, nil
}

func segmentPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%08d%s", segmentPrefix, seq, segmentSuffix))
}

// listSegments returns the sequence numbers of every segment in dir, in
// ascending order.
func listSegments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: listing directory: %w", err)
	}
	var seqs []uint64
	for _, e := range entries {
		name := e.Name()
		var seq uint64
		if _, err := fmt.Sscanf(name, segmentPrefix+"%d"+segmentSuffix, &seq); err == nil && segmentPath(dir, seq) == filepath.Join(dir, name) {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// replaySegment applies one segment's groups to the store, starting from
// seg's start index and chain hash, and completes seg from the same scan:
// its byte end (after any tail truncation) and its marks. It returns the
// stream index and prefix hash after the segment's last record. A torn
// or corrupt record in the final segment, or a final group the segment
// ends inside, is the crash tail: the file is truncated at the start of
// that group and replay stops there. The same damage in an earlier
// segment cannot be a crash artifact (segments are synced before
// rotation, and a group never spans two) and is reported as an error.
func replaySegment(dir string, last bool, st *graph.Store, stats *RecoveryStats, seg *segMeta) (next, hash uint64, err error) {
	path := segmentPath(dir, seg.seq)
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, fmt.Errorf("wal: reading segment %d: %w", seg.seq, err)
	}
	next, hash = seg.start, seg.hash
	off := 0
	for off < len(data) {
		ms, ends, err := DecodeGroup(data[off:])
		if err != nil {
			if !last || !(errors.Is(err, errTorn) || errors.Is(err, errCorrupt)) {
				graph.SetFormatFile(err, path)
				return 0, 0, fmt.Errorf("wal: segment %d offset %d: %w", seg.seq, off, err)
			}
			if terr := os.Truncate(path, int64(off)); terr != nil {
				return 0, 0, fmt.Errorf("wal: truncating torn tail of segment %d at %d: %w", seg.seq, off, terr)
			}
			stats.TailTruncated = true
			stats.DroppedBytes = int64(len(data) - off)
			break
		}
		applied, err := st.ApplyMutation(ms...)
		if err != nil {
			return 0, 0, fmt.Errorf("wal: replaying segment %d offset %d: %w", seg.seq, off, err)
		}
		stats.RecordsApplied += applied
		stats.RecordsSkipped += len(ms) - applied
		start := off
		for _, end := range ends {
			hash = ChainHash(hash, FrameChecksum(data[off:]))
			off = start + end
			next++
			seg.advance(next, int64(off), hash)
		}
	}
	seg.end = int64(off)
	return next, hash, nil
}

// Append logs one batch's group of mutations, making it durable before
// the store applies any of it: the group is encoded into one buffer and
// handed to the body AppendFrames shares. It is installed as the store's
// MutationHook, so it runs under the store's write lock; an error rejects
// the whole batch.
//
// When ctx carries a request span (obs.SpanFromContext), the append is
// recorded as one "WALAppend" child span per group, carrying its records
// and bytes, so the durability cost of an ingest shows up inside its
// end-to-end trace.
func (mgr *Manager) Append(ctx context.Context, ms []*graph.Mutation) error {
	start := time.Now()
	mgr.mu.Lock()
	buf, err := appendGroup(mgr.buf[:0], ms)
	if cap(buf) <= maxKeptBuffer {
		mgr.buf = buf
	}
	if err == nil {
		err = mgr.appendLocked(buf, len(ms))
	}
	mgr.mu.Unlock()
	if err != nil {
		return fmt.Errorf("wal: appending %s: %w", describeGroup(ms), err)
	}
	if parent := obs.SpanFromContext(ctx); parent != nil {
		sp := parent.Child("WALAppend", describeGroup(ms))
		sp.AddDuration(time.Since(start))
		sp.Add("records", int64(len(ms)))
		sp.Add("bytes", int64(len(buf)))
	}
	return nil
}

// AppendFrames logs a group of records verbatim: frames is one whole
// group as another log encoded it — a replica logging what its primary
// shipped, at the primary's stream indexes, before applying it. The
// caller has validated the frames (wal.DecodeGroup); records counts them.
func (mgr *Manager) AppendFrames(frames []byte, records int) error {
	mgr.mu.Lock()
	defer mgr.mu.Unlock()
	if err := mgr.appendLocked(frames, records); err != nil {
		return fmt.Errorf("wal: appending group of %d records: %w", records, err)
	}
	return nil
}

// appendLocked is the body of both appends: one Write and one Sync of
// the group's frames, then the stream index, marks and prefix hash
// advance record by record. A partial write is rolled back by truncating
// the segment; if that rollback fails the log is latched broken and every
// later append fails fast, because an unrepaired torn middle would
// corrupt all subsequent records. Callers hold mgr.mu.
func (mgr *Manager) appendLocked(buf []byte, records int) error {
	if mgr.broken != nil {
		return fmt.Errorf("log is broken: %w", mgr.broken)
	}
	o := &mgr.o
	n, err := mgr.f.Write(buf)
	if err != nil {
		o.appendErrors.Add(1)
		if n > 0 {
			if terr := mgr.f.Truncate(mgr.size); terr != nil {
				mgr.broken = fmt.Errorf("torn append could not be rolled back: %v (append: %w)", terr, err)
			}
		}
		return err
	}
	if !mgr.opts.NoSync {
		syncStart := time.Now()
		if err := mgr.f.Sync(); err != nil {
			// The group is written but not durably: the safe reading is
			// "not acknowledged", so fail the batch and roll back.
			o.appendErrors.Add(1)
			if terr := mgr.f.Truncate(mgr.size); terr != nil {
				mgr.broken = fmt.Errorf("unsynced append could not be rolled back: %v (sync: %w)", terr, err)
			}
			return fmt.Errorf("syncing: %w", err)
		}
		o.fsyncs.Add(1)
		o.fsyncMS.Observe(float64(time.Since(syncStart)) / 1e6)
	}
	o.appends.Add(int64(records))
	o.appendBytes.Add(int64(n))
	o.groupRecords.Observe(float64(records))
	// Only a durable group reaches here, so a rolled-back one never
	// leaves a mark.
	seg := &mgr.segs[len(mgr.segs)-1]
	for off := 0; off < len(buf); {
		mgr.hash = ChainHash(mgr.hash, FrameChecksum(buf[off:]))
		off += frameHeaderSize + int(uint32frame(buf[off:]))
		mgr.next++
		seg.advance(mgr.next, mgr.size+int64(off), mgr.hash)
	}
	mgr.size += int64(n)
	// Wake long-poll stream readers: the closed channel is the broadcast,
	// a fresh one arms the next wait.
	close(mgr.notify)
	mgr.notify = make(chan struct{})
	return nil
}

// maxKeptBuffer bounds the encoding buffer Append keeps between groups,
// so one huge batch does not pin its size for the life of the log.
const maxKeptBuffer = 1 << 20

// describeGroup names a group in errors and spans: its op for a single
// record, its size otherwise.
func describeGroup(ms []*graph.Mutation) string {
	if len(ms) == 1 {
		return fmt.Sprintf("%s uid %d", ms[0].Op, ms[0].UID)
	}
	return fmt.Sprintf("group of %d records", len(ms))
}

// Checkpoint snapshots the store's full history and contracts the log:
// the active segment is sealed and a fresh one opened (appends continue
// immediately), the snapshot is written and atomically renamed over the
// previous checkpoint, and sealed segments are deleted. Every crash point
// is safe: until the rename commits, recovery uses the old checkpoint
// plus all segments; after it, replay of any leftover segment records is
// idempotent.
func (mgr *Manager) Checkpoint(st *graph.Store) error {
	mgr.cpMu.Lock()
	defer mgr.cpMu.Unlock()
	start := time.Now()

	// Seal the active segment and rotate. From here on, concurrent
	// mutations land in the new segment.
	mgr.mu.Lock()
	if mgr.broken != nil {
		mgr.mu.Unlock()
		return fmt.Errorf("wal: log is broken: %w", mgr.broken)
	}
	if err := mgr.f.Sync(); err != nil {
		mgr.mu.Unlock()
		return fmt.Errorf("wal: syncing segment before rotation: %w", err)
	}
	if err := mgr.f.Close(); err != nil {
		mgr.broken = fmt.Errorf("sealed segment close failed: %w", err)
		mgr.mu.Unlock()
		return fmt.Errorf("wal: closing sealed segment: %w", err)
	}
	sealed := mgr.seq
	mgr.seq++
	// The rotated segment's first record is the next global index; persist
	// that (and the prefix-hash chain state at it) in the sidecar before
	// any record lands, so stream offsets and lineage survive recovery
	// even after the sealed segments are deleted.
	if err := writeSegIdx(mgr.opts, mgr.dir, mgr.seq, mgr.next, mgr.hash); err != nil {
		mgr.broken = fmt.Errorf("rotation failed: %w", err)
		mgr.mu.Unlock()
		return err
	}
	f, err := mgr.opts.open(segmentPath(mgr.dir, mgr.seq), os.O_WRONLY|os.O_CREATE|os.O_APPEND)
	if err != nil {
		mgr.broken = fmt.Errorf("rotation failed: %w", err)
		mgr.mu.Unlock()
		return fmt.Errorf("wal: opening rotated segment: %w", err)
	}
	mgr.f = f
	mgr.segs[len(mgr.segs)-1].end = mgr.size
	mgr.size = 0
	mgr.segs = append(mgr.segs, segMeta{seq: mgr.seq, start: mgr.next, hash: mgr.hash})
	mgr.mu.Unlock()

	// Snapshot outside the log lock; WriteHistory holds the store's read
	// lock, so the image contains everything up to rotation and possibly
	// a prefix of the new segment — replay idempotence absorbs that.
	if err := mgr.writeCheckpoint(st); err != nil {
		return err
	}

	// The sealed segments are now fully contained in the checkpoint.
	for _, seq := range mustListSegments(mgr.dir) {
		if seq <= sealed {
			if err := os.Remove(segmentPath(mgr.dir, seq)); err != nil {
				return fmt.Errorf("wal: removing sealed segment %d: %w", seq, err)
			}
			os.Remove(segmentIdxPath(mgr.dir, seq))
		}
	}
	mgr.mu.Lock()
	pruned := 0
	for pruned < len(mgr.segs) && mgr.segs[pruned].seq <= sealed {
		pruned++
	}
	// Delete rather than reslice, so the pruned segments' marks are freed.
	mgr.segs = slices.Delete(mgr.segs, 0, pruned)
	mgr.mu.Unlock()
	mgr.o.checkpoints.Add(1)
	mgr.o.checkpointMS.Observe(float64(time.Since(start)) / 1e6)
	return nil
}

// writeCheckpoint writes, syncs, and atomically installs the snapshot.
func (mgr *Manager) writeCheckpoint(st *graph.Store) error {
	tmp := filepath.Join(mgr.dir, checkpointTemp)
	f, err := mgr.opts.open(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC)
	if err != nil {
		return fmt.Errorf("wal: creating checkpoint temp: %w", err)
	}
	if err := st.WriteHistory(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("wal: writing checkpoint: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("wal: syncing checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: closing checkpoint: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(mgr.dir, checkpointName)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: installing checkpoint: %w", err)
	}
	syncDir(mgr.dir)
	return nil
}

// syncDir flushes directory metadata (the rename) to disk, best-effort:
// not every filesystem supports fsync on a directory handle.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// mustListSegments is listSegments for paths already proven readable.
func mustListSegments(dir string) []uint64 {
	seqs, _ := listSegments(dir)
	return seqs
}

// Close syncs and closes the active segment. The Manager must not be
// used afterwards.
func (mgr *Manager) Close() error {
	mgr.mu.Lock()
	defer mgr.mu.Unlock()
	if mgr.f == nil {
		return nil
	}
	f := mgr.f
	mgr.f = nil
	mgr.broken = errors.New("wal: manager closed")
	if !mgr.opts.NoSync {
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("wal: syncing on close: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: closing active segment: %w", err)
	}
	return nil
}

// Size reports the byte size of the active segment — the durable log
// bytes appended since the last rotation.
func (mgr *Manager) Size() int64 {
	mgr.mu.Lock()
	defer mgr.mu.Unlock()
	return mgr.size
}

// RecoveryStats returns what Open recovered.
func (mgr *Manager) RecoveryStats() RecoveryStats { return mgr.stats }
