package elastic

import (
	"encoding/binary"
	"fmt"
	"math"
)

// encodeVersion tags the sized binary encoding so a future layout change
// can be detected instead of misparsed.
const encodeVersion = 1

// SizeBytes returns the exact length of EncodeBytes' output without
// encoding: the byte count the transfer plane prices a move by.
func (c Checkpoint) SizeBytes() int64 {
	return 1 + 8 + 8 + 8*int64(len(c.Params))
}

// EncodeBytes serializes the checkpoint into the sized binary layout the
// transfer plane streams in chunks: a version byte, the step and parameter
// count as little-endian uint64, then each parameter's float64 bits. The
// length is known up front (SizeBytes), so a receiver can detect truncation
// and a mover can resume from a byte offset.
func (c Checkpoint) EncodeBytes() []byte {
	buf := make([]byte, c.SizeBytes())
	buf[0] = encodeVersion
	binary.LittleEndian.PutUint64(buf[1:], uint64(c.Step))
	binary.LittleEndian.PutUint64(buf[9:], uint64(len(c.Params)))
	for i, p := range c.Params {
		binary.LittleEndian.PutUint64(buf[17+8*i:], math.Float64bits(p))
	}
	return buf
}

// DecodeBytes parses an EncodeBytes payload. Truncated, oversized, or
// version-mismatched input is refused — never silently misread.
func DecodeBytes(data []byte) (Checkpoint, error) {
	if len(data) < 17 {
		return Checkpoint{}, fmt.Errorf("elastic: checkpoint truncated: %d bytes, need at least 17", len(data))
	}
	if data[0] != encodeVersion {
		return Checkpoint{}, fmt.Errorf("elastic: unknown checkpoint encoding version %d", data[0])
	}
	step := binary.LittleEndian.Uint64(data[1:])
	n := binary.LittleEndian.Uint64(data[9:])
	want := 17 + 8*n
	if uint64(len(data)) != want {
		return Checkpoint{}, fmt.Errorf("elastic: checkpoint length %d does not match declared %d params (want %d bytes)", len(data), n, want)
	}
	c := Checkpoint{Step: int(step), Params: make([]float64, n)}
	for i := range c.Params {
		c.Params[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[17+8*i:]))
	}
	return c, nil
}
