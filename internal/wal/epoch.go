package wal

// This file is the log's era and lineage state: a durable, monotonic
// primary epoch (bumped on every promotion, so two primaries can always
// be ordered) and a chained prefix hash over record checksums (so two
// nodes can cheaply decide "same history through position N" without
// shipping records). Together they are what failover fencing and fork
// detection are built on: the epoch says which era of the log a node
// speaks for, the prefix hash says whether two logs carrying the same
// identity actually share a history.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// epochName is the file persisting the log's primary epoch inside the
// WAL directory, beside log.id.
const epochName = "epoch"

// PrefixHashSeed is the chained prefix hash of the empty stream — the
// hash "at position 0" of a log that began at position 0. The chain is
// FNV-1a-shaped over each record's stored CRC-32C: cheap, stateless, and
// identical on every node that applied the same records in the same
// order.
const PrefixHashSeed uint64 = 0xcbf29ce484222325

// prefixHashPrime is the FNV-64 prime the chain multiplies by.
const prefixHashPrime uint64 = 0x100000001b3

// ChainHash folds one record's stored CRC-32C into a chained prefix
// hash: the hash at position N+1 is ChainHash(hash at N, CRC of record
// N). Followers use it to mirror the primary's chain record by record.
func ChainHash(h uint64, crc uint32) uint64 {
	return (h ^ uint64(crc)) * prefixHashPrime
}

// loadOrMintEpoch reads the directory's persisted primary epoch, durably
// writing the initial epoch 1 when the file does not exist. Unlike a
// missing log identity, a mangled epoch file is NOT silently re-minted:
// resetting an era could let a superseded primary masquerade as current,
// so it is surfaced as an error for the operator.
func loadOrMintEpoch(dir string) (uint64, error) {
	path := filepath.Join(dir, epochName)
	if data, err := os.ReadFile(path); err == nil {
		e, perr := strconv.ParseUint(strings.TrimSpace(string(data)), 10, 64)
		if perr != nil || e == 0 {
			return 0, fmt.Errorf("wal: mangled epoch file %q (%q); refusing to reset the log's era", path, strings.TrimSpace(string(data)))
		}
		return e, nil
	} else if !errors.Is(err, os.ErrNotExist) {
		return 0, fmt.Errorf("wal: reading epoch: %w", err)
	}
	if err := writeEpochFile(dir, 1); err != nil {
		return 0, err
	}
	return 1, nil
}

// writeEpochFile durably persists an epoch value (temp+rename+dir sync,
// so a crash can never leave a torn epoch — only the previous one).
func writeEpochFile(dir string, epoch uint64) error {
	if err := (Options{}).writeFileDurable(filepath.Join(dir, epochName), strconv.FormatUint(epoch, 10)+"\n"); err != nil {
		return fmt.Errorf("wal: persisting epoch %d: %w", epoch, err)
	}
	return nil
}

// Epoch returns the log's current primary epoch: 1 for a freshly minted
// log, bumped durably on every promotion. A higher epoch always denotes
// a newer era of the same log.
func (mgr *Manager) Epoch() uint64 {
	mgr.mu.Lock()
	defer mgr.mu.Unlock()
	return mgr.epoch
}

// SetEpoch durably raises the log's epoch. Equal is a no-op; lowering is
// an error — epochs order eras and only ever move forward.
func (mgr *Manager) SetEpoch(epoch uint64) error {
	mgr.mu.Lock()
	defer mgr.mu.Unlock()
	if epoch < mgr.epoch {
		return fmt.Errorf("wal: epoch moves only forward (at %d, asked to set %d)", mgr.epoch, epoch)
	}
	if epoch == mgr.epoch {
		return nil
	}
	if err := writeEpochFile(mgr.dir, epoch); err != nil {
		return err
	}
	mgr.epoch = epoch
	return nil
}

// StreamHash returns the log's durable end and the chained prefix hash
// at that end — the O(1) "summary of everything ever appended" a feed
// response stamps so a caught-up follower verifies lineage per poll.
func (mgr *Manager) StreamHash() (next, hash uint64) {
	mgr.mu.Lock()
	defer mgr.mu.Unlock()
	return mgr.next, mgr.hash
}

// PrefixHash returns the chained prefix hash at stream position pos: the
// hash after folding in records [base, pos). Positions contracted into a
// checkpoint return ErrTruncatedStream (their chain start survives only
// as the oldest sidecar); pos == NextIndex() is O(1), and any other
// position folds fewer than markEvery checksums into its segment's
// nearest mark.
func (mgr *Manager) PrefixHash(pos uint64) (uint64, error) {
	segs, next, end, o := mgr.streamView()
	if pos > next {
		return 0, fmt.Errorf("wal: stream position %d is beyond the log end %d", pos, next)
	}
	if pos == next {
		return end, nil
	}
	if pos < segs[0].start {
		return 0, fmt.Errorf("%w (want hash at %d, oldest on disk %d)", ErrTruncatedStream, pos, segs[0].start)
	}
	seg := &segs[segFor(segs, pos)]
	if at, _, h := seg.markAt(pos); at == pos {
		return h, nil
	}
	r, h, err := openAt(mgr.dir, seg, pos)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			// A concurrent checkpoint pruned the segment under us.
			return 0, fmt.Errorf("%w (segment %d removed)", ErrTruncatedStream, seg.seq)
		}
		return 0, err
	}
	r.close(o)
	return h, nil
}

// AdoptStream grafts a replicated stream's identity onto this (empty)
// log: a follower that replayed records [0, next) of log logID promotes
// by adopting that identity, position, and prefix hash into its own WAL,
// so its post-promotion appends continue the SAME log at the SAME
// positions under a new epoch. That alignment is what makes forks
// detectable — a partitioned old primary appending at those positions
// produces different records, and any follower comparing prefix hashes
// sees the histories disagree instead of silently interleaving them.
//
// The log must be empty of its own records (a follower's local WAL never
// sees replicated appends — they bypass the mutation hook). Persistence
// order is position, then epoch, then identity: the identity write is
// the commit point, so a crash mid-adoption leaves a log that never
// claimed the primary's lineage.
func (mgr *Manager) AdoptStream(logID string, next, epoch, hash uint64) error {
	mgr.mu.Lock()
	defer mgr.mu.Unlock()
	if mgr.broken != nil {
		return fmt.Errorf("wal: log is broken: %w", mgr.broken)
	}
	if mgr.next != 0 || mgr.size != 0 {
		return fmt.Errorf("wal: cannot adopt stream identity onto a log with its own records (next %d, active segment %d bytes)", mgr.next, mgr.size)
	}
	if epoch < mgr.epoch {
		return fmt.Errorf("wal: adopting epoch %d would rewind this log's epoch %d", epoch, mgr.epoch)
	}
	if err := writeSegIdx(mgr.opts, mgr.dir, mgr.seq, next, hash); err != nil {
		return err
	}
	if err := writeEpochFile(mgr.dir, epoch); err != nil {
		return err
	}
	if err := writeLogIDFile(mgr.dir, logID); err != nil {
		return err
	}
	mgr.logID = logID
	mgr.next = next
	mgr.epoch = epoch
	mgr.hash = hash
	mgr.segs = []segMeta{{seq: mgr.seq, start: next, hash: hash}}
	close(mgr.notify)
	mgr.notify = make(chan struct{})
	return nil
}

// writeFileDurable writes path via temp+rename with fsyncs on both the
// file and its directory, so the content is either the old value or the
// new one — never torn. The temp goes through the options' file opener;
// the zero Options writes to the real filesystem.
func (o Options) writeFileDurable(path, contents string) error {
	tmp := path + ".tmp"
	f, err := o.open(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC)
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte(contents)); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	syncDir(filepath.Dir(path))
	return nil
}
