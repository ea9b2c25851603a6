package store

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/elasticflow/elasticflow/internal/obs"
	"github.com/elasticflow/elasticflow/internal/obs/tracing"
)

// Options configures a Store.
type Options struct {
	// Obs receives the ef_store_* metric catalog. Nil observes nothing.
	Obs *obs.Obs
	// NoSync skips fsync on durable appends and snapshots — only for
	// benchmarks that measure framing cost rather than disk cost. A real
	// deployment must not set it: record-then-apply is only as strong as
	// the sync under it.
	NoSync bool
}

// Store is one state directory: the active journal segment plus the
// snapshot chain. Append and Snapshot are safe for concurrent use; Close
// makes everything durable.
type Store struct {
	dir  string
	obs  *obs.Obs
	sync func(*os.File) error // fsync, injectable in tests

	mu sync.Mutex
	// f is the active segment, positioned at its end. guarded by mu
	f *os.File
	// path of f. guarded by mu
	path string
	// lastLSN is the highest assigned LSN. guarded by mu
	lastLSN uint64
	// written counts bytes appended to f. Mutated under mu; read lock-free
	// by the group-commit leader so one fsync covers every byte already
	// written, not just the leader's own record.
	written atomic.Int64
	// sinceSnap counts records appended since the last snapshot (or
	// open). guarded by mu
	sinceSnap int
	// closed refuses appends after Close. guarded by mu
	closed bool

	// syncMu serializes fsync leaders for group commit. Lock order is
	// always mu before syncMu; syncTo takes only syncMu.
	syncMu sync.Mutex
	// syncF is the segment the durability cursor refers to; a rotation
	// (which fully syncs the old segment first) swaps it while holding
	// both locks. guarded by syncMu
	syncF *os.File
	// synced is how many bytes of syncF are known durable. guarded by syncMu
	synced int64

	// snapW batches a snapshot's small parts into file-sized writes; parts
	// larger than its buffer pass straight through. guarded by mu
	snapW *bufio.Writer

	// snapLSN is the newest snapshot's LSN (recovered or taken); hasSnap
	// says there is one. guarded by mu
	snapLSN uint64
	hasSnap bool // guarded by mu
	// Recovery results: set at Open, released by the first Snapshot — only
	// Recover reads them, and it runs before that. guarded by mu
	snapPayload []byte
	tail        []Record // guarded by mu
	// tornTails is written once during the single-threaded Open and
	// read-only afterwards, so it needs no guard.
	tornTails int
}

// The declared acquisition order for the store's two locks — the comment on
// syncMu above is the prose version; locklint enforces it.
//
//eflint:lockorder store.Store.mu store.Store.syncMu

// Open opens (or initializes) a state directory and performs the recovery
// scan: it locates the newest valid snapshot, decodes the journal suffix
// after it, truncates a torn final record if the last crash left one, and
// positions the journal for appending. The recovered state is available via
// RecoveredSnapshot and RecoveredTail until the next Snapshot.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, obs: opts.Obs, sync: (*os.File).Sync, snapW: bufio.NewWriterSize(nil, snapWriteBuf)}
	if opts.NoSync {
		s.sync = func(*os.File) error { return nil }
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	return s, nil
}

// snapFile/walFile render the canonical file names.
func snapFile(lsn uint64) string { return fmt.Sprintf("snap-%016x.snap", lsn) }
func walFile(base uint64) string { return fmt.Sprintf("wal-%016x.wal", base) }

// parseStateFile inverts snapFile/walFile; ok is false for foreign files.
func parseStateFile(name string) (kind string, lsn uint64, ok bool) {
	var rest string
	switch {
	case strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".snap"):
		kind, rest = "snap", strings.TrimSuffix(strings.TrimPrefix(name, "snap-"), ".snap")
	case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".wal"):
		kind, rest = "wal", strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".wal")
	default:
		return "", 0, false
	}
	if len(rest) != 16 {
		return "", 0, false
	}
	if _, err := fmt.Sscanf(rest, "%016x", &lsn); err != nil {
		return "", 0, false
	}
	return kind, lsn, true
}

// recover performs the Open-time scan described in the package comment. It
// holds both locks for its duration — Open is single-threaded, the locks
// only document which fields it initializes.
func (s *Store) recover() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	var snaps, wals []uint64
	for _, e := range entries {
		kind, lsn, ok := parseStateFile(e.Name())
		if !ok {
			continue
		}
		switch kind {
		case "snap":
			snaps = append(snaps, lsn)
		case "wal":
			wals = append(wals, lsn)
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })
	sort.Slice(wals, func(i, j int) bool { return wals[i] < wals[j] })

	// Newest decodable snapshot wins; an invalid one (crash before its
	// rename completed should make this impossible, but bit rot happens)
	// falls back to the previous, whose journal suffix is still intact
	// because segments are only deleted after a newer snapshot succeeds.
	for i := len(snaps) - 1; i >= 0; i-- {
		payload, err := readSnapshot(filepath.Join(s.dir, snapFile(snaps[i])), snaps[i])
		if err != nil {
			s.obs.EventNow(obs.KindError, "", tracing.A("op", "store-snapshot-read"), tracing.A("err", err.Error()))
			continue
		}
		s.snapPayload, s.snapLSN, s.hasSnap = payload, snaps[i], true
		break
	}

	// Decode every segment, oldest first; keep records after the chosen
	// snapshot and insist they are contiguous from snapLSN+1.
	next := s.snapLSN + 1
	var lastScan scanResult
	lastScan.tornAt = -1
	for i, base := range wals {
		path := filepath.Join(s.dir, walFile(base))
		res, err := scanSegment(path, i == len(wals)-1)
		if err != nil {
			return err
		}
		if res.baseLSN != base && !(i == len(wals)-1 && res.tornAt == 0) {
			return &CorruptError{Path: path, Offset: 8, Reason: fmt.Sprintf("header LSN %d disagrees with file name %d", res.baseLSN, base)}
		}
		for _, rec := range res.records {
			if rec.LSN <= s.snapLSN {
				continue // pre-snapshot history not yet deleted
			}
			if rec.LSN != next {
				return &CorruptError{Path: path, Reason: fmt.Sprintf("record LSN %d, want %d (gap in journal chain)", rec.LSN, next)}
			}
			s.tail = append(s.tail, rec)
			next++
		}
		if i == len(wals)-1 {
			lastScan = res
		} else if res.tornAt >= 0 {
			return &CorruptError{Path: path, Offset: res.tornAt, Reason: "partial frame in non-final segment"}
		}
	}
	s.lastLSN = next - 1

	// Open (or create) the active segment, truncating a torn tail first.
	if len(wals) > 0 {
		base := wals[len(wals)-1]
		path := filepath.Join(s.dir, walFile(base))
		if lastScan.tornAt >= 0 {
			s.tornTails++
			s.obs.IncStoreTornTail()
			if lastScan.tornAt < fileHeaderLen {
				// Header itself was torn: rewrite the stub from scratch.
				if err := s.createSegment(path, base); err != nil {
					return err
				}
			} else if err := os.Truncate(path, lastScan.tornAt); err != nil {
				return fmt.Errorf("store: truncating torn tail of %s: %w", path, err)
			}
		}
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return fmt.Errorf("store: %w", err)
		}
		s.f, s.path = f, path
		s.written.Store(st.Size())
	} else {
		path := filepath.Join(s.dir, walFile(s.lastLSN))
		if err := s.createSegment(path, s.lastLSN); err != nil {
			return err
		}
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		s.f, s.path = f, path
		s.written.Store(fileHeaderLen)
	}
	s.syncF, s.synced = s.f, s.written.Load()
	s.removeStaleLocked()
	return nil
}

// createSegment writes a fresh segment file containing only the header and
// syncs it, so a later crash cannot confuse the header with a record.
func (s *Store) createSegment(path string, base uint64) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := writeAll(f, fileHeader(walMagic, base)); err != nil {
		f.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := s.sync(f); err != nil {
		f.Close()
		return fmt.Errorf("store: %w", err)
	}
	return f.Close()
}

// readSnapshot decodes and CRC-checks one snapshot file.
func readSnapshot(path string, lsn uint64) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("store: reading %s: %w", path, err)
	}
	if len(data) < fileHeaderLen {
		return nil, &CorruptError{Path: path, Offset: 0, Reason: "snapshot header incomplete"}
	}
	if string(data[:8]) != snapMagic {
		return nil, &CorruptError{Path: path, Offset: 0, Reason: fmt.Sprintf("bad magic %q", data[:8])}
	}
	if got := binary.BigEndian.Uint64(data[8:fileHeaderLen]); got != lsn {
		return nil, &CorruptError{Path: path, Offset: 8, Reason: fmt.Sprintf("header LSN %d disagrees with file name %d", got, lsn)}
	}
	payload, n, _, cerr := nextFrame(data, fileHeaderLen, path, maxSnapshotLen)
	if cerr != nil {
		return nil, cerr
	}
	if n == 0 {
		return nil, &CorruptError{Path: path, Offset: fileHeaderLen, Reason: "snapshot payload missing"}
	}
	if int64(fileHeaderLen)+n != int64(len(data)) {
		return nil, &CorruptError{Path: path, Offset: int64(fileHeaderLen) + n, Reason: "trailing bytes after snapshot payload"}
	}
	if len(payload) < 1 || payload[0] != recordVersion {
		return nil, &CorruptError{Path: path, Offset: fileHeaderLen, Reason: "unsupported snapshot version"}
	}
	return payload[1:], nil
}

// RecoveredSnapshot returns the payload and LSN of the snapshot recovery
// started from; ok is false on a fresh (or snapshot-less) directory. It is
// meaningful until the first Snapshot, which releases the payload (the LSN
// then names the newest snapshot taken).
func (s *Store) RecoveredSnapshot() (payload []byte, lsn uint64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Copied so callers cannot alias each other's payload.
	return append([]byte(nil), s.snapPayload...), s.snapLSN, s.hasSnap
}

// RecoveredTail returns the journal records after the recovered snapshot,
// in LSN order — the suffix recovery must replay.
func (s *Store) RecoveredTail() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Record(nil), s.tail...)
}

// TornTails reports how many torn final records Open truncated (0 or 1; the
// counter form feeds ef_store_torn_tails_total).
func (s *Store) TornTails() int { return s.tornTails }

// HasState reports whether the directory held any snapshot or journal
// records — i.e. whether recovery has anything to restore.
func (s *Store) HasState() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hasSnap || len(s.tail) > 0
}

// LastLSN returns the highest assigned record LSN.
func (s *Store) LastLSN() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastLSN
}

// RecordsSinceSnapshot returns how many records were appended since the
// last snapshot (including the recovered tail) — the platform's snapshot
// trigger.
func (s *Store) RecordsSinceSnapshot() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sinceSnap + len(s.tail)
}

// Append journals one record and returns its LSN. data is marshaled as the
// record body. With durable set, Append does not return until the record —
// and every record before it — is fsynced; concurrent durable appends share
// fsyncs (group commit). Non-durable appends become durable with the next
// durable append, snapshot, or Close; they are for annotation records whose
// loss cannot diverge state.
func (s *Store) Append(kind string, t float64, data any, durable bool) (uint64, error) {
	var body json.RawMessage
	if data != nil {
		b, err := json.Marshal(data)
		if err != nil {
			return 0, fmt.Errorf("store: encoding %s record: %w", kind, err)
		}
		body = b
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, fmt.Errorf("store: append after Close")
	}
	rec := Record{LSN: s.lastLSN + 1, Time: t, Kind: kind, Data: body}
	buf, err := encodeRecord(nil, rec)
	if err != nil {
		s.mu.Unlock()
		return 0, err
	}
	if err := writeAll(s.f, buf); err != nil {
		s.mu.Unlock()
		return 0, fmt.Errorf("store: appending record %d: %w", rec.LSN, err)
	}
	s.lastLSN++
	s.written.Add(int64(len(buf)))
	s.sinceSnap++
	f, end := s.f, s.written.Load()
	s.mu.Unlock()

	s.obs.IncStoreRecord(kind)
	if !durable {
		return rec.LSN, nil
	}
	if err := s.syncTo(f, end); err != nil {
		return 0, err
	}
	return rec.LSN, nil
}

// syncTo makes at least the first end bytes of segment f durable. Group
// commit: the caller that wins syncMu fsyncs on behalf of everyone queued
// behind it; a waiter whose bytes a leader already covered returns without
// its own fsync. A caller holding a rotated-out segment returns
// immediately — rotation fully syncs the old segment before swapping.
func (s *Store) syncTo(f *os.File, end int64) error {
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	if f != s.syncF || s.synced >= end {
		return nil
	}
	if err := s.sync(f); err != nil {
		return fmt.Errorf("store: fsync: %w", err)
	}
	s.obs.IncStoreFsync()
	s.synced = end
	return nil
}

// Sync forces everything appended so far to be durable.
func (s *Store) Sync() error {
	s.mu.Lock()
	f, end := s.f, s.written.Load()
	s.mu.Unlock()
	return s.syncTo(f, end)
}

// snapWriteBuf sizes the write buffer snapshots stream through.
const snapWriteBuf = 32 << 10

// Snapshot atomically records the concatenation of parts as the platform
// state after the last appended record, rotates the journal to a fresh
// segment, and deletes the history the snapshot supersedes. The parts are
// checksummed and written through in order — never joined, copied or
// retained — so a caller can hand over a large state as the pieces it
// already holds. The write protocol tolerates a crash at any point: temp
// write → fsync → rename → fsync dir → new segment → delete old files;
// recovery always finds either the new snapshot or the old chain intact.
func (s *Store) Snapshot(parts ...[]byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: snapshot after Close")
	}
	// The snapshot claims every record ≤ lastLSN; they must be durable
	// before the journal suffix they live in can be deleted.
	if err := s.syncTailLocked(); err != nil {
		return err
	}
	lsn := s.lastLSN

	// One frame whose payload is the version byte followed by the parts.
	size := 1
	crc := crc32.Update(0, castagnoli, []byte{recordVersion})
	for _, p := range parts {
		size += len(p)
		crc = crc32.Update(crc, castagnoli, p)
	}
	hdr := frameHeader(size, crc)

	tmp := filepath.Join(s.dir, snapFile(lsn)+".tmp")
	final := filepath.Join(s.dir, snapFile(lsn))
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	// Write errors stick to the bufio.Writer and surface at Flush.
	s.snapW.Reset(f)
	_, _ = s.snapW.Write(fileHeader(snapMagic, lsn))
	_, _ = s.snapW.Write(hdr[:])
	_ = s.snapW.WriteByte(recordVersion)
	for _, p := range parts {
		_, _ = s.snapW.Write(p)
	}
	if err = s.snapW.Flush(); err == nil {
		err = s.sync(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: writing snapshot %d: %w", lsn, err)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: %w", err)
	}
	s.syncDir()

	// Rotate to a fresh segment based at the snapshot LSN.
	newPath := filepath.Join(s.dir, walFile(lsn))
	if err := s.createSegment(newPath, lsn); err != nil {
		return err
	}
	nf, err := os.OpenFile(newPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	old := s.f
	s.f, s.path = nf, newPath
	s.written.Store(fileHeaderLen)
	s.syncMu.Lock()
	s.syncF, s.synced = nf, fileHeaderLen
	s.syncMu.Unlock()
	if err := old.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.sinceSnap = 0
	s.tail = nil
	s.snapPayload, s.snapLSN, s.hasSnap = nil, lsn, true
	s.obs.ObserveStoreSnapshot(fileHeaderLen + frameHeaderLen + size)
	s.removeStaleLocked()
	return nil
}

// syncTailLocked fsyncs the active segment while holding mu (Snapshot's
// private variant of Sync — mu already serializes appends here).
func (s *Store) syncTailLocked() error {
	if err := s.sync(s.f); err != nil {
		return fmt.Errorf("store: fsync: %w", err)
	}
	s.obs.IncStoreFsync()
	s.syncMu.Lock()
	s.synced = s.written.Load()
	s.syncMu.Unlock()
	return nil
}

// syncDir fsyncs the state directory so renames and creates are durable.
// Best-effort: some filesystems refuse directory fsync.
func (s *Store) syncDir() {
	d, err := os.Open(s.dir)
	if err != nil {
		return
	}
	_ = s.sync(d)
	_ = d.Close()
}

// removeStaleLocked deletes snapshots older than the current one and
// segments wholly covered by it. Only called (under mu) after the newer
// snapshot is durable.
func (s *Store) removeStaleLocked() {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		kind, lsn, ok := parseStateFile(e.Name())
		if !ok {
			continue
		}
		stale := (kind == "snap" && s.hasSnap && lsn < s.snapLSN) ||
			(kind == "wal" && s.hasSnap && lsn < s.snapLSN && filepath.Join(s.dir, e.Name()) != s.path)
		if stale {
			_ = os.Remove(filepath.Join(s.dir, e.Name()))
		}
	}
}

// Close flushes and closes the journal. Further appends fail.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.syncTailLocked()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// SetObs redirects metric emission to o. The platform builds its
// observability handle only after the store has been opened (the store is a
// constructor input), so platform construction wires the handle in
// retroactively — before any concurrent use of the store. Recovery damage
// counted during Open went to the previous handle; if there was none, the
// torn-tail count is re-emitted so ef_store_torn_tails_total reflects it.
func (s *Store) SetObs(o *obs.Obs) {
	if o == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	prev := s.obs
	s.obs = o
	if prev == nil {
		for i := 0; i < s.tornTails; i++ {
			o.IncStoreTornTail()
		}
	}
}

// Dir returns the state directory path.
func (s *Store) Dir() string { return s.dir }
