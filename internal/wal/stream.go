package wal

// This file is the replication read side of the log: every record has a
// global stream index (0-based, dense, stable across restarts thanks to
// the per-segment ".idx" sidecars), and a Manager can serve any suffix of
// the stream that checkpointing has not yet contracted away. internal/repl
// builds the primary's HTTP feed on ReadRecords/Changed and the follower
// bootstrap path on Snapshot; internal/watch tails the log the same way.
//
// A stream read costs what it returns: each segment keeps a sparse frame
// index (a mark every markEvery records, see segMeta), so ReadRecords and
// PrefixHash seek to the nearest mark at or before their position and walk
// fewer than markEvery frames from there, instead of reading the segment
// from its first byte.

import (
	"bufio"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"repro/internal/obs"
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

// LogID returns the log's identity: 32 hex characters minted the first
// time the directory was opened and persisted alongside the segments, or
// the primary's, once a replica adopted it (AdoptStream). Two unrelated
// logs never share an ID, so replication followers use it to refuse a
// feed from an unrelated log.
func (mgr *Manager) LogID() string {
	mgr.mu.Lock()
	defer mgr.mu.Unlock()
	return mgr.logID
}

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
	if err := (Options{}).writeLogIDFile(dir, id); err != nil {
		return "", err
	}
	return id, nil
}

// writeLogIDFile durably persists the log identity (temp+rename+dir
// sync). Besides minting, AdoptStream uses it to rewrite the identity
// when a replica takes over its primary's log.
func (o Options) writeLogIDFile(dir, id string) error {
	if err := o.writeFileDurable(filepath.Join(dir, logIDName), id+"\n"); err != nil {
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
// stopping at the durable end of the log or at the first group boundary
// at or past maxBytes (0 = unbounded) — always shipping at least one
// whole group when any is available, so a batch never ends inside a
// group. It returns the frames and the index of the record after the
// last one shipped; an empty batch with next == from means the reader is
// caught up. ErrTruncatedStream means from predates the oldest segment.
//
// Reads are safe concurrently with appends, checkpoints, and torn-append
// rollbacks: the batch is bounded by the record count and byte end that
// were durable at entry, so a partially written (or about-to-be-rolled-
// back) tail frame is never read, let alone shipped.
func (mgr *Manager) ReadRecords(from uint64, maxBytes int) ([]byte, uint64, error) {
	segs, next, _ := mgr.streamView()
	if from > next {
		return nil, from, fmt.Errorf("wal: stream position %d is beyond the log end %d", from, next)
	}
	if from == next {
		return nil, from, nil
	}
	if from < segs[0].start {
		return nil, from, fmt.Errorf("%w (want %d, oldest on disk %d)", ErrTruncatedStream, from, segs[0].start)
	}

	var out []byte
	cur := from
	open := false // the last frame shipped carries the continuation mark
	full := func() bool { return !open && maxBytes > 0 && len(out) >= maxBytes }
	for i := segFor(segs, from); i < len(segs) && cur < next && !full(); i++ {
		segEnd := next
		if i+1 < len(segs) {
			segEnd = segs[i+1].start
		}
		if cur >= segEnd {
			continue
		}
		r, _, err := openAt(mgr.dir, &segs[i], cur)
		if err != nil {
			// A concurrent checkpoint may delete a sealed segment under us.
			// Anything already copied is still a valid batch; an empty read
			// means the position is gone and the caller must bootstrap.
			if errors.Is(err, os.ErrNotExist) {
				if len(out) > 0 {
					return out, cur, nil
				}
				return nil, from, fmt.Errorf("%w (segment %d removed)", ErrTruncatedStream, segs[i].seq)
			}
			return nil, from, err
		}
		// The batch runs to the byte end or the budget: size it once.
		want := segs[i].end - r.off
		if maxBytes > 0 {
			want = min(want, int64(maxBytes-len(out)))
		}
		out = slices.Grow(out, int(want))
		for cur < segEnd && !full() && err == nil {
			l := len(out)
			if out, err = r.next(out); err == nil {
				cur++
				open = continued(out[l:])
			}
		}
		r.close(mgr.o.streamReadBytes)
		if err != nil {
			return nil, from, err
		}
	}
	return out, cur, nil
}

// streamView copies, under the lock, what a stream read needs: the
// segment index with the active segment's end set to its durable size,
// and the durable record count and the chain hash there. Readers index
// each segment's marks only below the copied length, so appends extending
// the live slice never race them.
func (mgr *Manager) streamView() (segs []segMeta, next, hash uint64) {
	mgr.mu.Lock()
	defer mgr.mu.Unlock()
	segs = slices.Clone(mgr.segs)
	segs[len(segs)-1].end = mgr.size
	return segs, mgr.next, mgr.hash
}

// segFor returns the index of the segment holding stream position pos,
// which must not precede segs[0].start.
func segFor(segs []segMeta, pos uint64) int {
	si := 0
	for i, s := range segs {
		if s.start <= pos {
			si = i
		}
	}
	return si
}

// frameReader reads checksum-verified frames out of one segment file, up
// to the segment's byte end.
type frameReader struct {
	f   *os.File
	sec *io.SectionReader
	br  *bufio.Reader
	seq uint64
	off int64 // byte offset of the next frame
}

// openAt opens seg positioned at stream position pos, which must lie in
// the segment below its end: it seeks to the nearest mark at or before
// pos and walks the fewer than markEvery frames between, folding their
// checksums into the mark's hash. It returns the reader and the chained
// prefix hash at pos.
func openAt(dir string, seg *segMeta, pos uint64) (*frameReader, uint64, error) {
	at, off, hash := seg.markAt(pos)
	f, err := os.Open(segmentPath(dir, seg.seq))
	if err != nil {
		return nil, 0, fmt.Errorf("wal: reading segment %d: %w", seg.seq, err)
	}
	sec := io.NewSectionReader(f, off, seg.end-off)
	r := &frameReader{f: f, sec: sec, br: bufio.NewReader(sec), seq: seg.seq, off: off}
	var frame []byte
	for ; at < pos; at++ {
		if frame, err = r.next(frame[:0]); err != nil {
			f.Close()
			return nil, 0, err
		}
		hash = ChainHash(hash, FrameChecksum(frame))
	}
	return r, hash, nil
}

// next appends the segment's next frame to dst, validated by frameSize.
// A frame running past the byte end is torn.
func (r *frameReader) next(dst []byte) ([]byte, error) {
	hdr, err := r.br.Peek(frameHeaderSize)
	if err != nil && err != io.EOF {
		return dst, fmt.Errorf("wal: reading segment %d offset %d: %w", r.seq, r.off, err)
	}
	n, err := frameLen(hdr)
	if err != nil {
		return dst, fmt.Errorf("wal: segment %d offset %d: %w", r.seq, r.off, err)
	}
	l := len(dst)
	dst = slices.Grow(dst, n)[:l+n]
	if _, err := io.ReadFull(r.br, dst[l:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			err = errTorn
		}
		return dst[:l], fmt.Errorf("wal: segment %d offset %d: %w", r.seq, r.off, err)
	}
	if _, err := frameSize(dst[l:]); err != nil {
		return dst[:l], fmt.Errorf("wal: segment %d offset %d: %w", r.seq, r.off, err)
	}
	r.off += int64(n)
	return dst, nil
}

// close counts the bytes read from the file into readBytes and closes it.
func (r *frameReader) close(readBytes *obs.Counter) {
	read, _ := r.sec.Seek(0, io.SeekCurrent)
	readBytes.Add(read)
	r.f.Close()
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
// full byte length, without decoding the payload — the cheap
// check the stream reader applies to every frame it walks or ships.
func frameSize(b []byte) (int, error) {
	n, err := frameLen(b)
	if err != nil {
		return 0, err
	}
	if len(b) < n {
		return 0, errTorn
	}
	if err := verifyFrameChecksum(b[:n]); err != nil {
		return 0, err
	}
	return n, nil
}

// frameLen validates a frame header's length prefix and returns the full
// frame length, so a reader knows how much to read before trusting it.
func frameLen(hdr []byte) (int, error) {
	if len(hdr) < frameHeaderSize {
		return 0, errTorn
	}
	n := int(uint32frame(hdr))
	if n == 0 || n > maxRecordSize {
		return 0, fmt.Errorf("%w: implausible length prefix %d", errCorrupt, n)
	}
	return frameHeaderSize + n, nil
}
