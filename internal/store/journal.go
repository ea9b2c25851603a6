// Package store is the durable control-plane state subsystem: an
// append-only write-ahead journal of scheduler-visible mutations plus
// periodic full-state snapshots that truncate the journal chain.
//
// The platform (internal/serverless) follows record-then-apply: every
// mutation is appended — and made durable — before it touches in-memory
// state, so an acknowledged write is never lost to a crash. On restart the
// store finds the newest valid snapshot, replays the journal suffix through
// the same decision path that produced it, and the platform resumes exactly
// where it stopped (see DESIGN.md §11).
//
// On-disk layout inside the state directory:
//
//	wal-<base LSN, %016x>.wal    journal segments (records base+1, base+2, …)
//	snap-<LSN, %016x>.snap       snapshots of the state after record <LSN>
//
// Both use the same frame: a 4-byte big-endian payload length, a 4-byte
// CRC-32C (Castagnoli) of the payload, then the payload itself, whose first
// byte is a format version. A partial final frame — the signature of a
// crash mid-write — is detected, truncated, and counted
// (ef_store_torn_tails_total), never treated as corruption; a bad CRC
// anywhere else refuses recovery instead of silently diverging.
package store

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// Record is one journal entry. LSN is the position in the journal (assigned
// by Append, contiguous from 1); Time is the platform time the mutation was
// decided at; Kind names the mutation (the platform's vocabulary — the
// store does not interpret it); Data is the kind-specific body.
type Record struct {
	LSN  uint64          `json:"lsn"`
	Time float64         `json:"time"`
	Kind string          `json:"kind"`
	Data json.RawMessage `json:"data,omitempty"`
}

const (
	// walMagic and snapMagic open every segment and snapshot file.
	walMagic  = "EFWAL001"
	snapMagic = "EFSNP001"
	// fileHeaderLen is magic (8) + big-endian base/at LSN (8).
	fileHeaderLen = 16
	// frameHeaderLen is payload length (4) + CRC-32C (4).
	frameHeaderLen = 8
	// recordVersion is the payload format version byte.
	recordVersion = 0x01
	// maxRecordLen bounds a journal record's framed payload; a declared
	// length beyond it is corruption, not a large record.
	maxRecordLen = 1 << 26
	// maxSnapshotLen bounds a snapshot payload.
	maxSnapshotLen = 1 << 30
)

// castagnoli is the CRC-32C table (the polynomial with hardware support,
// the same choice as ext4 and iSCSI).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// encodeFrame appends one length-prefixed, CRC-checked frame carrying
// payload (already including its version byte) to buf.
func encodeFrame(buf, payload []byte) []byte {
	hdr := frameHeader(len(payload), crc32.Checksum(payload, castagnoli))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// frameHeader renders the length and CRC-32C that precede a frame's payload.
func frameHeader(payloadLen int, crc uint32) [frameHeaderLen]byte {
	var hdr [frameHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(payloadLen))
	binary.BigEndian.PutUint32(hdr[4:8], crc)
	return hdr
}

// encodeRecord frames rec: version byte + JSON body.
func encodeRecord(buf []byte, rec Record) ([]byte, error) {
	body, err := json.Marshal(rec)
	if err != nil {
		return buf, fmt.Errorf("store: encoding record %d: %w", rec.LSN, err)
	}
	payload := make([]byte, 0, 1+len(body))
	payload = append(payload, recordVersion)
	payload = append(payload, body...)
	return encodeFrame(buf, payload), nil
}

// fileHeader renders a segment or snapshot header.
func fileHeader(magic string, lsn uint64) []byte {
	hdr := make([]byte, fileHeaderLen)
	copy(hdr, magic)
	binary.BigEndian.PutUint64(hdr[8:], lsn)
	return hdr
}

// CorruptError reports journal or snapshot bytes that cannot be the residue
// of a crash mid-append: a bad CRC with further complete frames behind it, a
// nonsensical length, a record out of LSN sequence. Recovery refuses to
// proceed past it — truncating here could silently drop acknowledged
// mutations.
type CorruptError struct {
	Path   string
	Offset int64
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("store: %s: corrupt at offset %d: %s", e.Path, e.Offset, e.Reason)
}

// scanResult is one segment's decoded records plus how the scan ended.
type scanResult struct {
	baseLSN uint64
	records []Record
	// tornAt ≥ 0 is the byte offset of a partial final frame (the file
	// should be truncated there); -1 means the file ended cleanly.
	tornAt int64
}

// scanSegment reads one WAL segment. last marks the newest segment — the
// only one where a partial final frame is a legal crash artifact; anywhere
// else the chain continues in a later file, so a short read is corruption.
func scanSegment(path string, last bool) (scanResult, error) {
	res := scanResult{tornAt: -1}
	data, err := os.ReadFile(path)
	if err != nil {
		return res, fmt.Errorf("store: reading %s: %w", path, err)
	}
	if len(data) < fileHeaderLen {
		// A crash between creating the segment and syncing its header
		// leaves a stub; nothing in it was ever acknowledged.
		if last {
			res.tornAt = 0
			return res, nil
		}
		return res, &CorruptError{Path: path, Offset: 0, Reason: "segment header incomplete in non-final segment"}
	}
	if string(data[:8]) != walMagic {
		return res, &CorruptError{Path: path, Offset: 0, Reason: fmt.Sprintf("bad magic %q", data[:8])}
	}
	res.baseLSN = binary.BigEndian.Uint64(data[8:fileHeaderLen])
	off := int64(fileHeaderLen)
	body := data
	for {
		rec, n, terr, cerr := nextFrame(body, off, path, maxRecordLen)
		if cerr != nil {
			if last && terr {
				res.tornAt = off
				return res, nil
			}
			return res, cerr
		}
		if n == 0 { // clean EOF
			return res, nil
		}
		var r Record
		if uerr := decodeRecordPayload(rec, &r); uerr != nil {
			return res, &CorruptError{Path: path, Offset: off, Reason: uerr.Error()}
		}
		res.records = append(res.records, r)
		off += n
	}
}

// nextFrame decodes the frame starting at offset off in the file whose full
// contents are data. It returns the payload and the frame's total length
// (0,0 at clean EOF). On failure it reports whether the damage is
// consistent with a torn final write (torn=true: the frame is a strict
// prefix — short header, short payload, or a CRC mismatch on a frame
// running exactly to EOF, where sector reordering can bite) alongside the
// corruption error to use when it is not the final frame.
func nextFrame(data []byte, off int64, path string, maxLen uint32) (payload []byte, size int64, torn bool, err error) {
	rest := data[off:]
	if len(rest) == 0 {
		return nil, 0, false, nil
	}
	if len(rest) < frameHeaderLen {
		return nil, 0, true, &CorruptError{Path: path, Offset: off, Reason: "frame header incomplete"}
	}
	length := binary.BigEndian.Uint32(rest[0:4])
	if length == 0 || length > maxLen {
		return nil, 0, false, &CorruptError{Path: path, Offset: off, Reason: fmt.Sprintf("implausible frame length %d", length)}
	}
	end := int64(frameHeaderLen) + int64(length)
	if int64(len(rest)) < end {
		return nil, 0, true, &CorruptError{Path: path, Offset: off, Reason: "frame payload incomplete"}
	}
	payload = rest[frameHeaderLen:end]
	if crc := crc32.Checksum(payload, castagnoli); crc != binary.BigEndian.Uint32(rest[4:8]) {
		// Only a frame that runs exactly to EOF can be a torn write.
		return nil, 0, int64(len(rest)) == end,
			&CorruptError{Path: path, Offset: off, Reason: "CRC mismatch"}
	}
	return payload, end, false, nil
}

// decodeRecordPayload strips the version byte and unmarshals the record.
func decodeRecordPayload(payload []byte, r *Record) error {
	if len(payload) < 1 {
		return fmt.Errorf("empty record payload")
	}
	if payload[0] != recordVersion {
		return fmt.Errorf("unsupported record version %d", payload[0])
	}
	if err := json.Unmarshal(payload[1:], r); err != nil {
		return fmt.Errorf("record body: %w", err)
	}
	return nil
}

// writeAll writes buf fully at the current offset.
func writeAll(w io.Writer, buf []byte) error {
	_, err := w.Write(buf)
	return err
}
