package wal

// This file is the replication read side of the log: every record has a
// global stream index (0-based, dense, stable across restarts thanks to
// the per-segment ".idx" sidecars), and a Manager can serve any suffix of
// the stream that checkpointing has not yet contracted away. internal/repl
// builds the primary's HTTP feed on ReadRecords/Changed and the follower
// bootstrap path on Snapshot.

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// ErrTruncatedStream reports that the requested stream position has been
// absorbed into a checkpoint: the records are no longer on disk as log
// segments, and the reader must bootstrap from Snapshot instead.
var ErrTruncatedStream = errors.New("wal: requested records contracted into a checkpoint")

// ErrNoCheckpoint reports that Snapshot was asked for a checkpoint that
// does not exist (a log that has never been checkpointed serves its whole
// history through ReadRecords).
var ErrNoCheckpoint = errors.New("wal: no checkpoint exists")

// IsTruncatedStream reports whether err is ErrTruncatedStream.
func IsTruncatedStream(err error) bool { return errors.Is(err, ErrTruncatedStream) }

// IsNoCheckpoint reports whether err is ErrNoCheckpoint.
func IsNoCheckpoint(err error) bool { return errors.Is(err, ErrNoCheckpoint) }

// logIDName is the file persisting the log's immutable identity inside
// the WAL directory.
const logIDName = "log.id"

// LogID returns the log's immutable identity: 32 hex characters minted
// the first time the directory was opened and persisted alongside the
// segments. Two WAL directories never share an ID, so replication
// followers use it to refuse a feed from an unrelated log.
func (mgr *Manager) LogID() string { return mgr.logID }

// loadOrMintLogID reads the directory's persisted log identity, minting
// and durably writing a fresh one when none (or a mangled one) exists.
// The write is temp+rename, so a crash can never leave a torn identity —
// only a missing one, which re-mints. Re-minting after such a crash is
// safe: no follower can have pinned an identity that never became
// durable.
func loadOrMintLogID(dir string) (string, error) {
	path := filepath.Join(dir, logIDName)
	if data, err := os.ReadFile(path); err == nil {
		id := strings.TrimSpace(string(data))
		if len(id) == 32 {
			if _, err := hex.DecodeString(id); err == nil {
				return id, nil
			}
		}
		// Mangled: fall through and mint a replacement. Followers pinned to
		// the old identity park fatal rather than silently diverging.
	} else if !errors.Is(err, os.ErrNotExist) {
		return "", fmt.Errorf("wal: reading log identity: %w", err)
	}
	var raw [16]byte
	if _, err := rand.Read(raw[:]); err != nil {
		return "", fmt.Errorf("wal: minting log identity: %w", err)
	}
	id := hex.EncodeToString(raw[:])
	if err := writeLogIDFile(dir, id); err != nil {
		return "", err
	}
	return id, nil
}

// writeLogIDFile durably persists the log identity (temp+rename+dir
// sync). Besides minting, AdoptStream uses it to rewrite the identity
// when a promoted follower takes over its primary's log.
func writeLogIDFile(dir, id string) error {
	if err := (Options{}).writeFileDurable(filepath.Join(dir, logIDName), id+"\n"); err != nil {
		return fmt.Errorf("wal: persisting log identity: %w", err)
	}
	return nil
}

// NextIndex returns the global stream index the next appended record will
// take — equivalently, the number of records ever appended to this log.
func (mgr *Manager) NextIndex() uint64 {
	mgr.mu.Lock()
	defer mgr.mu.Unlock()
	return mgr.next
}

// BaseIndex returns the global index of the oldest record still on disk
// as a log segment. Positions below it are only reachable via Snapshot.
func (mgr *Manager) BaseIndex() uint64 {
	mgr.mu.Lock()
	defer mgr.mu.Unlock()
	if len(mgr.segs) == 0 {
		return mgr.next
	}
	return mgr.segs[0].start
}

// Changed returns a channel closed on the next durable append. To wait
// for records past index n without losing a wakeup: grab the channel,
// re-check NextIndex() > n, then select on the channel.
func (mgr *Manager) Changed() <-chan struct{} {
	mgr.mu.Lock()
	defer mgr.mu.Unlock()
	return mgr.notify
}

// ReadRecords copies raw record frames starting at global index from,
// stopping at the durable end of the log or once maxBytes (0 = unbounded)
// is reached — always shipping at least one whole frame when any is
// available. It returns the frames and the index of the record after the
// last one shipped; an empty batch with next == from means the reader is
// caught up. ErrTruncatedStream means from predates the oldest segment.
//
// Reads are safe concurrently with appends, checkpoints, and torn-append
// rollbacks: the batch is bounded by the record count that was durable at
// entry, so a partially written (or about-to-be-rolled-back) tail frame
// is never shipped.
func (mgr *Manager) ReadRecords(from uint64, maxBytes int) ([]byte, uint64, error) {
	mgr.mu.Lock()
	segs := make([]segMeta, len(mgr.segs))
	copy(segs, mgr.segs)
	next := mgr.next
	mgr.mu.Unlock()

	if from > next {
		return nil, from, fmt.Errorf("wal: stream position %d is beyond the log end %d", from, next)
	}
	if from == next {
		return nil, from, nil
	}
	if len(segs) == 0 || from < segs[0].start {
		return nil, from, fmt.Errorf("%w (want %d, oldest on disk %d)", ErrTruncatedStream, from, mgr.BaseIndex())
	}
	si := 0
	for i, s := range segs {
		if s.start <= from {
			si = i
		}
	}

	var out []byte
	cur := from
	for i := si; i < len(segs) && cur < next; i++ {
		segEnd := next
		if i+1 < len(segs) {
			segEnd = segs[i+1].start
		}
		if cur >= segEnd {
			continue
		}
		data, err := os.ReadFile(segmentPath(mgr.dir, segs[i].seq))
		if err != nil {
			// A concurrent checkpoint may delete a sealed segment under us.
			// Anything already copied is still a valid batch; an empty read
			// means the position is gone and the caller must bootstrap.
			if os.IsNotExist(err) {
				if len(out) > 0 {
					return out, cur, nil
				}
				return nil, from, fmt.Errorf("%w (segment %d removed)", ErrTruncatedStream, segs[i].seq)
			}
			return nil, from, fmt.Errorf("wal: reading segment %d: %w", segs[i].seq, err)
		}
		off := 0
		for skip := cur - segs[i].start; skip > 0; skip-- {
			n, err := frameSize(data[off:])
			if err != nil {
				return nil, from, fmt.Errorf("wal: segment %d offset %d: %w", segs[i].seq, off, err)
			}
			off += n
		}
		for cur < segEnd {
			n, err := frameSize(data[off:])
			if err != nil {
				return nil, from, fmt.Errorf("wal: segment %d offset %d: %w", segs[i].seq, off, err)
			}
			out = append(out, data[off:off+n]...)
			off += n
			cur++
			if maxBytes > 0 && len(out) >= maxBytes {
				return out, cur, nil
			}
		}
	}
	return out, cur, nil
}

// Snapshot opens the latest checkpoint for reading and returns the stream
// index a reader should resume from after loading it, plus the chained
// prefix hash at that index (captured atomically with it, so a
// bootstrapping follower can seed its own chain). The checkpoint may
// contain records at or past the returned index (the rotation overlap
// window); replaying them through graph.ApplyMutation is idempotent, so
// resuming at the returned index is always correct. The caller closes the
// reader.
func (mgr *Manager) Snapshot() (io.ReadCloser, uint64, uint64, error) {
	// Read the resume index before opening: the checkpoint on disk at (or
	// replaced after) this moment always covers at least through the
	// current base, so a concurrent checkpoint swap stays safe.
	mgr.mu.Lock()
	base, hash := mgr.next, mgr.hash
	if len(mgr.segs) > 0 {
		base, hash = mgr.segs[0].start, mgr.segs[0].hash
	}
	mgr.mu.Unlock()
	f, err := os.Open(checkpointPath(mgr.dir))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, 0, ErrNoCheckpoint
		}
		return nil, 0, 0, fmt.Errorf("wal: opening checkpoint: %w", err)
	}
	return f, base, hash, nil
}

func checkpointPath(dir string) string {
	return filepath.Join(dir, checkpointName)
}

// ---- segment index sidecars ----

func segmentIdxPath(dir string, seq uint64) string {
	return strings.TrimSuffix(segmentPath(dir, seq), segmentSuffix) + indexSuffix
}

// writeSegIdx persists a segment's global start index and the chained
// prefix hash at that index as "start hash\n", the hash in hex. It goes
// through the Manager's (possibly fault-injected) file opener and is
// installed by rename like log.id, so a crash leaves the previous sidecar
// or none, never a torn one.
func writeSegIdx(opts Options, dir string, seq, start, hash uint64) error {
	line := strconv.FormatUint(start, 10) + " " + strconv.FormatUint(hash, 16) + "\n"
	if err := opts.writeFileDurable(segmentIdxPath(dir, seq), line); err != nil {
		return fmt.Errorf("wal: persisting segment %d index sidecar: %w", seq, err)
	}
	return nil
}

// readSegIdx loads a segment's persisted start index and prefix hash. ok
// is false when the segment has no sidecar (recovery then derives the
// start by chaining record counts from stream position zero); a sidecar
// that is not "start hash" is an error naming the file.
func readSegIdx(dir string, seq uint64) (start, hash uint64, ok bool, err error) {
	path := segmentIdxPath(dir, seq)
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, 0, false, nil
	}
	if err != nil {
		return 0, 0, false, fmt.Errorf("wal: reading index sidecar %s: %w", path, err)
	}
	fields := strings.Fields(string(data))
	if len(fields) == 2 {
		start, err = strconv.ParseUint(fields[0], 10, 64)
		if err == nil {
			hash, err = strconv.ParseUint(fields[1], 16, 64)
		}
		if err == nil {
			return start, hash, true, nil
		}
	}
	return 0, 0, false, fmt.Errorf("wal: index sidecar %s holds %q, want \"start hash\"", path, strings.TrimSpace(string(data)))
}

// frameSize validates one frame's header and checksum and returns its
// full byte length, without decoding the payload document — the cheap
// walk the stream reader uses to slice frames out of a segment.
func frameSize(b []byte) (int, error) {
	if len(b) < frameHeaderSize {
		return 0, errTorn
	}
	n := int(uint32frame(b))
	if n == 0 || n > maxRecordSize {
		return 0, fmt.Errorf("%w: implausible length prefix %d", errCorrupt, n)
	}
	if len(b) < frameHeaderSize+n {
		return 0, errTorn
	}
	if err := verifyFrameChecksum(b[:frameHeaderSize+n]); err != nil {
		return 0, err
	}
	return frameHeaderSize + n, nil
}
