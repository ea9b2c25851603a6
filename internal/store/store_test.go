package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// appendN appends n records with deterministic bodies and returns them as
// the ground truth for recovery comparisons.
func appendN(t *testing.T, s *Store, start, n int) []Record {
	t.Helper()
	var out []Record
	for i := start; i < start+n; i++ {
		body := map[string]int{"i": i}
		lsn, err := s.Append("test", float64(i), body, true)
		if err != nil {
			t.Fatalf("Append(%d): %v", i, err)
		}
		data, _ := json.Marshal(body)
		out = append(out, Record{LSN: lsn, Time: float64(i), Kind: "test", Data: data})
	}
	return out
}

func sameRecords(t *testing.T, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.LSN != w.LSN || g.Time != w.Time || g.Kind != w.Kind || string(g.Data) != string(w.Data) {
			t.Fatalf("record %d: got %+v, want %+v", i, g, w)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.HasState() {
		t.Fatal("fresh directory reports state")
	}
	want := appendN(t, s, 0, 7)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append("late", 0, nil, true); err == nil {
		t.Fatal("append after Close succeeded")
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if !s2.HasState() {
		t.Fatal("reopened directory reports no state")
	}
	if _, _, ok := s2.RecoveredSnapshot(); ok {
		t.Fatal("unexpected snapshot in snapshot-less directory")
	}
	sameRecords(t, s2.RecoveredTail(), want)
	if s2.TornTails() != 0 {
		t.Fatalf("TornTails = %d on a clean directory", s2.TornTails())
	}
	if s2.LastLSN() != uint64(len(want)) {
		t.Fatalf("LastLSN = %d, want %d", s2.LastLSN(), len(want))
	}
	// Appending after recovery continues the LSN chain.
	more := appendN(t, s2, 7, 3)
	if more[0].LSN != uint64(len(want))+1 {
		t.Fatalf("post-recovery LSN = %d, want %d", more[0].LSN, len(want)+1)
	}
}

func TestSnapshotTruncatesJournal(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 0, 5)
	state := []byte(`{"jobs":5}`)
	if err := s.Snapshot(state); err != nil {
		t.Fatal(err)
	}
	if got := s.RecordsSinceSnapshot(); got != 0 {
		t.Fatalf("RecordsSinceSnapshot = %d after snapshot", got)
	}
	tail := appendN(t, s, 5, 2)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Only the current snapshot and the post-snapshot segment survive.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if len(names) != 2 {
		t.Fatalf("state dir holds %v, want exactly snapshot+segment", names)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	payload, lsn, ok := s2.RecoveredSnapshot()
	if !ok || lsn != 5 || string(payload) != string(state) {
		t.Fatalf("RecoveredSnapshot = (%q, %d, %v), want (%q, 5, true)", payload, lsn, ok, state)
	}
	sameRecords(t, s2.RecoveredTail(), tail)
}

// TestSnapshotPartsFrame pins the streamed write against the frame a joined
// payload encodes to: wherever the part boundaries fall — at 0, 1, len,
// around empty parts, across the write buffer — the file on disk is the
// same bytes (header, length, CRC-32C, version byte, payload), and the
// store keeps no reference to what it was handed.
func TestSnapshotPartsFrame(t *testing.T) {
	payload := make([]byte, 3*snapWriteBuf+17)
	for i := range payload {
		payload[i] = byte(i*31 + i>>8)
	}
	n := len(payload)
	splits := map[string][][]byte{
		"whole":        {payload},
		"boundary-0":   {payload[:0], payload},
		"boundary-1":   {payload[:1], payload[1:]},
		"boundary-len": {payload, payload[n:]},
		"last-byte":    {payload[:n-1], payload[n-1:]},
		"empty-middle": {payload[:10], nil, payload[10:]},
		"none":         nil,
	}
	var small [][]byte // every part smaller than the buffer, straddling it
	for off := 0; off < n; off += 1000 {
		end := off + 1000
		if end > n {
			end = n
		}
		small = append(small, payload[off:end])
	}
	splits["small"] = small

	for name, parts := range splits {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			appendN(t, s, 0, 3)
			if err := s.Snapshot(parts...); err != nil {
				t.Fatal(err)
			}
			var joined []byte
			for _, p := range parts {
				joined = append(joined, p...)
			}
			want := encodeFrame(fileHeader(snapMagic, 3), append([]byte{recordVersion}, joined...))
			got, err := os.ReadFile(filepath.Join(dir, snapFile(3)))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("streamed snapshot file (%d bytes) differs from the joined frame (%d bytes)", len(got), len(want))
			}
			back, err := readSnapshot(filepath.Join(dir, snapFile(3)), 3)
			if err != nil || !bytes.Equal(back, joined) {
				t.Fatalf("readSnapshot = %d bytes, %v; want the %d-byte payload", len(back), err, len(joined))
			}
			if held, lsn, ok := s.RecoveredSnapshot(); len(held) != 0 || lsn != 3 || !ok {
				t.Fatalf("after a live snapshot the store reports (%d bytes, %d, %v), want (0, 3, true)", len(held), lsn, ok)
			}
		})
	}
}

// TestSnapshotSyncFailure fails the fsync of the snapshot's temp file. At
// that instant — the image a crash mid-snapshot would leave — the directory
// holds the streamed bytes only under the .tmp name, and recovery from it
// picks the previous snapshot and the whole journal since. The failed
// Snapshot cleans up and leaves the store appendable.
func TestSnapshotSyncFailure(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 0, 3)
	if err := s.Snapshot([]byte("good")); err != nil {
		t.Fatal(err)
	}
	tail := appendN(t, s, 3, 4)

	crashed := t.TempDir()
	s.sync = func(f *os.File) error {
		if !strings.HasSuffix(f.Name(), ".tmp") {
			return nil
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(crashed, e.Name()), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return errors.New("injected fsync failure")
	}
	if err := s.Snapshot([]byte("new-"), []byte("state")); err == nil {
		t.Fatal("Snapshot succeeded over a failing fsync")
	}
	s.sync = (*os.File).Sync

	tmp := snapFile(7) + ".tmp"
	if data, err := os.ReadFile(filepath.Join(crashed, tmp)); err != nil || !bytes.HasSuffix(data, []byte("new-state")) {
		t.Fatalf("crash image holds no streamed %s (%q, %v)", tmp, data, err)
	}
	if _, err := os.Stat(filepath.Join(crashed, snapFile(7))); !os.IsNotExist(err) {
		t.Fatalf("snapshot 7 was published before its fsync (stat err = %v)", err)
	}
	if _, err := os.Stat(filepath.Join(dir, tmp)); !os.IsNotExist(err) {
		t.Fatalf("failed Snapshot left %s behind (stat err = %v)", tmp, err)
	}
	more := appendN(t, s, 7, 1)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		dir  string
		tail []Record
	}{{crashed, tail}, {dir, append(tail, more...)}} {
		s2, err := Open(c.dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		payload, lsn, ok := s2.RecoveredSnapshot()
		if !ok || lsn != 3 || string(payload) != "good" {
			t.Fatalf("RecoveredSnapshot = (%q, %d, %v), want the previous (good, 3, true)", payload, lsn, ok)
		}
		sameRecords(t, s2.RecoveredTail(), c.tail)
		s2.Close()
	}
}

func TestSnapshotFallback(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 0, 3)
	if err := s.Snapshot([]byte(`good`)); err != nil {
		t.Fatal(err)
	}
	tail := appendN(t, s, 3, 2)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// A newer snapshot whose bytes never made it: garbage content. Recovery
	// must skip it and use the older valid one.
	if err := os.WriteFile(filepath.Join(dir, snapFile(99)), []byte("EFSNPxxx-garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	payload, lsn, ok := s2.RecoveredSnapshot()
	if !ok || lsn != 3 || string(payload) != "good" {
		t.Fatalf("RecoveredSnapshot = (%q, %d, %v), want fallback to (good, 3, true)", payload, lsn, ok)
	}
	sameRecords(t, s2.RecoveredTail(), tail)
}

func TestTornTailTruncated(t *testing.T) {
	for _, cut := range []int{1, 3, frameHeaderLen - 1} {
		t.Run(fmt.Sprintf("cut%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			want := appendN(t, s, 0, 4)
			path := s.path
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			// Tear the final record: drop its last cut bytes.
			st, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, st.Size()-int64(cut)); err != nil {
				t.Fatal(err)
			}

			s2, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("torn tail treated as failure: %v", err)
			}
			sameRecords(t, s2.RecoveredTail(), want[:3])
			if s2.TornTails() != 1 {
				t.Fatalf("TornTails = %d, want 1", s2.TornTails())
			}
			// The torn bytes are gone; the journal continues cleanly.
			appendN(t, s2, 3, 2)
			if err := s2.Close(); err != nil {
				t.Fatal(err)
			}
			s3, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer s3.Close()
			if s3.TornTails() != 0 {
				t.Fatalf("second recovery still torn: %d", s3.TornTails())
			}
			if got := len(s3.RecoveredTail()); got != 5 {
				t.Fatalf("after repair recovered %d records, want 5", got)
			}
		})
	}
}

func TestHeaderStubRecreated(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := s.path
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Crash between segment create and header sync: a sub-header stub.
	if err := os.Truncate(path, 5); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("header stub treated as failure: %v", err)
	}
	defer s2.Close()
	if s2.TornTails() != 1 {
		t.Fatalf("TornTails = %d, want 1", s2.TornTails())
	}
	appendN(t, s2, 0, 2)
}

func TestMidFileCorruptionRefused(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 0, 5)
	path := s.path
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip one payload bit in the middle of the file — complete frames
	// follow it, so this cannot be a torn write.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[fileHeaderLen+frameHeaderLen+2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = Open(dir, Options{})
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("Open on corrupt journal: err = %v, want CorruptError", err)
	}
}

func TestLSNGapRefused(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 0, 3)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// A second segment whose records skip ahead — a hole in the chain.
	var buf []byte
	buf = append(buf, fileHeader(walMagic, 3)...)
	buf, err = encodeRecord(buf, Record{LSN: 9, Kind: "test"})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, walFile(3)), buf, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir, Options{})
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("Open over LSN gap: err = %v, want CorruptError", err)
	}
}

func TestGroupCommitSharesFsyncs(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var mu sync.Mutex
	fsyncs := 0
	s.sync = func(*os.File) error {
		mu.Lock()
		fsyncs++
		mu.Unlock()
		return nil
	}

	// Non-durable appends cost no fsync; the first Sync covers them all;
	// a second Sync with nothing new is free.
	for i := 0; i < 3; i++ {
		if _, err := s.Append("note", 0, nil, false); err != nil {
			t.Fatal(err)
		}
	}
	if fsyncs != 0 {
		t.Fatalf("non-durable appends cost %d fsyncs", fsyncs)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if fsyncs != 1 {
		t.Fatalf("Sync cost %d fsyncs, want 1", fsyncs)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if fsyncs != 1 {
		t.Fatalf("redundant Sync cost an fsync (total %d)", fsyncs)
	}

	// Concurrent durable appends share fsyncs (group commit): never more
	// syncs than appends, and everything is durable at the end.
	const writers = 32
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if _, err := s.Append("burst", float64(w), nil, true); err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()
	mu.Lock()
	total := fsyncs
	mu.Unlock()
	if total > 1+writers {
		t.Fatalf("%d fsyncs for %d appends", total-1, writers)
	}
	s.syncMu.Lock()
	synced := s.synced
	s.syncMu.Unlock()
	if synced != s.written.Load() {
		t.Fatalf("synced %d bytes of %d written", synced, s.written.Load())
	}
}

func TestDurableAfterRotation(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var mu sync.Mutex
	fsyncs := 0
	s.sync = func(*os.File) error {
		mu.Lock()
		fsyncs++
		mu.Unlock()
		return nil
	}
	appendN(t, s, 0, 2)
	if err := s.Snapshot([]byte("s")); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	before := fsyncs
	mu.Unlock()
	// A durable append on the rotated-in segment must fsync it — the
	// durability cursor must follow the rotation.
	if _, err := s.Append("post", 0, nil, true); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	after := fsyncs
	mu.Unlock()
	if after != before+1 {
		t.Fatalf("durable append after rotation cost %d fsyncs, want 1", after-before)
	}
}

func TestForeignFilesIgnored(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"README", "wal-zz.wal", "snap-1.snap", "wal-0000000000000000.wal.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("foreign files broke Open: %v", err)
	}
	defer s.Close()
	if s.HasState() {
		t.Fatal("foreign files recovered as state")
	}
}
