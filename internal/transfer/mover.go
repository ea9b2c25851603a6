package transfer

import (
	"fmt"
	"time"
)

// Peer is one side of a chunked transfer: the minimal verbs the mover
// needs from an agent (implemented over net/rpc by agent.Controller, and
// by in-memory fakes in tests).
//
// Fetch path: Read returns the chunk at a byte offset of a pinned
// checkpoint; Close unpins it.
//
// Push path: BeginPush declares the object (size + whole CRC) and returns
// the receiver's committed offset — 0 for a fresh transfer, >0 when a
// previous attempt partially landed, which is exactly where the mover
// resumes. Push appends one chunk at the committed offset (chunks below it
// are acknowledged idempotently, gaps refused). Commit verifies the whole
// object's CRC and stages it; a mismatch is refused, never applied.
type Peer interface {
	Read(id string, offset int64, n int) (Chunk, error)
	Close(id string) error
	BeginPush(id string, size int64, crc uint32) (int64, error)
	Push(id string, c Chunk) error
	Commit(id string) error
}

// Stats counts what a transfer did — the numbers the ef_transfer_* series
// export.
type Stats struct {
	// Bytes and Chunks count verified payload that landed.
	Bytes  int64
	Chunks int
	// Retries counts chunk attempts that failed and were retried.
	Retries int
	// Resumes counts continuations from a non-zero verified offset after
	// a dropped stream.
	Resumes int
	// Corruptions counts chunks refused for CRC mismatch.
	Corruptions int
	// StallSec is time spent queued behind the per-server transfer gate.
	StallSec float64
	// CloseErrors counts advisory unpin calls that failed after a
	// successful fetch (harmless: the peer drops stale pins itself).
	CloseErrors int
}

// DefaultChunkSize is the frame payload size: small enough that a dropped
// stream loses little verified progress, large enough that framing
// overhead is noise.
const DefaultChunkSize = 64 << 10

// DefaultMaxChunkRetries bounds attempts per chunk before the transfer
// gives up.
const DefaultMaxChunkRetries = 4

// Mover drives a chunked transfer against a Peer: bounded per-chunk
// retries with optional backoff, CRC verification of every chunk and of
// the assembled object, offset-based resumption after stream drops, and
// cooperative yielding at chunk boundaries when a Slot says an urgent
// transfer is waiting.
type Mover struct {
	// ChunkSize is the frame payload size (default DefaultChunkSize).
	ChunkSize int
	// MaxChunkRetries bounds failed attempts per chunk (default
	// DefaultMaxChunkRetries).
	MaxChunkRetries int
	// Backoff maps a retry ordinal (1-based) to a sleep; nil → no sleep.
	Backoff func(attempt int) time.Duration
	// Sleep performs the backoff sleep; nil → no sleep. Injected so tests
	// and the simulator stay instant.
	Sleep func(time.Duration)
	// Fatal reports errors that must abort instead of retrying (agent
	// declared down, job crashed). Chunk-CRC errors are never fatal.
	Fatal func(error) bool
	// Slot, when set, is this transfer's admission at the per-server gate;
	// the mover yields it at chunk boundaries when asked.
	Slot *Slot
	// Stats accumulates counters across Fetch/Push calls on this mover.
	Stats Stats
}

func (m *Mover) chunkSize() int {
	if m.ChunkSize > 0 {
		return m.ChunkSize
	}
	return DefaultChunkSize
}

func (m *Mover) maxRetries() int {
	if m.MaxChunkRetries > 0 {
		return m.MaxChunkRetries
	}
	return DefaultMaxChunkRetries
}

func (m *Mover) backoff(attempt int) {
	if m.Backoff == nil || m.Sleep == nil {
		return
	}
	m.Sleep(m.Backoff(attempt))
}

func (m *Mover) fatal(err error) bool {
	return m.Fatal != nil && !IsChunkCRC(err) && m.Fatal(err)
}

func (m *Mover) yieldPoint() {
	if m.Slot.ShouldYield() {
		m.Stats.StallSec += m.Slot.Yield()
	}
}

// fail records one failed attempt for the chunk at offset and decides
// whether to keep trying. It classifies the error (corruption vs
// transport), so callers just loop.
func (m *Mover) fail(err error, offset int64, attempts *int, resume *bool) error {
	if m.fatal(err) {
		return err
	}
	if IsChunkCRC(err) {
		m.Stats.Corruptions++
	} else if offset > 0 {
		// A dropped stream at a verified offset: the next success is a
		// resumption, not a restart.
		*resume = true
	}
	*attempts++
	m.Stats.Retries++
	if *attempts > m.maxRetries() {
		return fmt.Errorf("transfer: chunk at offset %d failed after %d attempts: %w", offset, *attempts, err)
	}
	m.backoff(*attempts)
	return nil
}

// Fetch streams the offered checkpoint from the peer and returns its
// bytes, verified chunk-by-chunk and whole-object against the offer's CRC.
// It refuses any assembly that does not match the offer exactly.
func (m *Mover) Fetch(p Peer, off Offer) ([]byte, error) {
	if off.Size < 0 {
		return nil, fmt.Errorf("transfer: negative offer size %d", off.Size)
	}
	buf := make([]byte, 0, off.Size)
	var offset int64
	var attempts int
	resume := false
	for offset < off.Size {
		m.yieldPoint()
		want := m.chunkSize()
		if rem := off.Size - offset; rem < int64(want) {
			want = int(rem)
		}
		c, err := p.Read(off.ID, offset, want)
		if err == nil {
			err = c.Verify()
		}
		if err == nil && c.Offset != offset {
			err = fmt.Errorf("transfer: peer returned offset %d, want %d", c.Offset, offset)
		}
		if err == nil && len(c.Data) == 0 {
			err = fmt.Errorf("transfer: peer returned empty chunk at offset %d", offset)
		}
		if err != nil {
			if ferr := m.fail(err, offset, &attempts, &resume); ferr != nil {
				return nil, ferr
			}
			continue
		}
		if resume {
			m.Stats.Resumes++
			resume = false
		}
		attempts = 0
		buf = append(buf, c.Data...)
		offset += int64(len(c.Data))
		m.Stats.Chunks++
		m.Stats.Bytes += int64(len(c.Data))
	}
	if int64(len(buf)) != off.Size {
		return nil, fmt.Errorf("transfer: assembled %d bytes, offer declared %d", len(buf), off.Size)
	}
	if got := Checksum(buf); got != off.CRC {
		return nil, fmt.Errorf("transfer: assembled object crc %08x does not match offer %08x", got, off.CRC)
	}
	if cerr := p.Close(off.ID); cerr != nil {
		// Unpinning is advisory: the bytes are already verified in hand,
		// and the peer drops stale pins itself on the next open for the
		// same job — a failed close is deliberately not a failed fetch.
		m.Stats.CloseErrors++
	}
	return buf, nil
}

// Push streams data to the peer under the given transfer ID, resuming from
// the peer's committed offset after any drop, and commits it — the peer
// verifies the whole-object CRC before staging, so a damaged transfer is
// refused rather than applied.
func (m *Mover) Push(p Peer, id string, data []byte) error {
	size := int64(len(data))
	crc := Checksum(data)
	offset, err := m.begin(p, id, size, crc)
	if err != nil {
		return err
	}
	if offset > 0 {
		// An earlier attempt partially landed; continue where it stopped.
		m.Stats.Resumes++
	}
	var attempts int
	for offset < size {
		m.yieldPoint()
		n := m.chunkSize()
		if rem := size - offset; rem < int64(n) {
			n = int(rem)
		}
		if err := p.Push(id, ChunkAt(data, offset, n)); err != nil {
			resume := false
			if ferr := m.fail(err, offset, &attempts, &resume); ferr != nil {
				return ferr
			}
			if !IsChunkCRC(err) {
				// The stream may have died mid-chunk: re-begin to learn
				// what the peer actually committed and resume there.
				committed, berr := m.begin(p, id, size, crc)
				if berr != nil {
					return berr
				}
				if resume || committed != offset {
					m.Stats.Resumes++
				}
				offset = committed
			}
			continue
		}
		attempts = 0
		offset += int64(n)
		m.Stats.Chunks++
		m.Stats.Bytes += int64(n)
	}
	var cattempts int
	for {
		err := p.Commit(id)
		if err == nil {
			return nil
		}
		if IsChunkCRC(err) || m.fatal(err) {
			// A whole-object CRC refusal at commit is not retryable —
			// the staged bytes are wrong and the peer discarded them.
			return err
		}
		cattempts++
		m.Stats.Retries++
		if cattempts > m.maxRetries() {
			return fmt.Errorf("transfer: commit of %s failed after %d attempts: %w", id, cattempts, err)
		}
		m.backoff(cattempts)
	}
}

// begin calls BeginPush with the mover's bounded retry policy.
func (m *Mover) begin(p Peer, id string, size int64, crc uint32) (int64, error) {
	var attempts int
	for {
		committed, err := p.BeginPush(id, size, crc)
		if err == nil {
			return committed, nil
		}
		if m.fatal(err) {
			return 0, err
		}
		attempts++
		m.Stats.Retries++
		if attempts > m.maxRetries() {
			return 0, fmt.Errorf("transfer: begin push of %s failed after %d attempts: %w", id, attempts, err)
		}
		m.backoff(attempts)
	}
}
