package agent

import (
	"fmt"

	"github.com/elasticflow/elasticflow/internal/elastic"
	"github.com/elasticflow/elasticflow/internal/transfer"
)

// This file is the agent side of the checkpoint data plane (DESIGN.md
// §14): checkpoints leave an agent as CRC-framed chunks pinned under a
// transfer ID (OpenTransfer or Stop → ReadChunk → CloseTransfer)
// and arrive as chunks appended to an inbound buffer with idempotent
// offset acknowledgment (BeginPush → PushChunk → CommitPush), so a
// dropped stream resumes from the receiver's committed offset and a
// corrupted chunk is refused by CRC — never applied.

// TransferOffer describes a checkpoint pinned on an agent for chunked
// fetch: its transfer ID, exact encoded length, and whole-object CRC-32C.
type TransferOffer struct {
	ID   string
	Size int64
	CRC  uint32
}

// pinned is one outbound transfer: a checkpoint encoding held for fetch.
type pinned struct {
	jobID string
	data  []byte
}

// inbound is one in-progress push: declared size/CRC plus the bytes
// committed so far.
type inbound struct {
	size int64
	crc  uint32
	buf  []byte
}

// pinLocked pins data for chunked fetch and returns its offer, dropping
// any earlier pin for the same job (a retried OpenTransfer would otherwise
// leak the abandoned pin). Callers hold a.mu.
func (a *Agent) pinLocked(jobID string, data []byte) TransferOffer {
	for id, p := range a.reads {
		if p.jobID == jobID {
			delete(a.reads, id)
		}
	}
	a.xferSeq++
	id := fmt.Sprintf("%s-x%d", a.name, a.xferSeq)
	a.reads[id] = &pinned{jobID: jobID, data: data}
	return TransferOffer{ID: id, Size: int64(len(data)), CRC: transfer.Checksum(data)}
}

// OpenTransferArgs pins a snapshot of a running job for chunked fetch; the
// job keeps training.
type OpenTransferArgs struct{ JobID string }

// OpenTransfer implements the RPC: encode a live snapshot and offer it.
func (a *Agent) OpenTransfer(args OpenTransferArgs, reply *TransferOffer) error {
	t, err := a.get(args.JobID)
	if err != nil {
		return err
	}
	data := t.trainer.Checkpoint().EncodeBytes()
	a.mu.Lock()
	*reply = a.pinLocked(args.JobID, data)
	a.mu.Unlock()
	return nil
}

// ReadChunkArgs requests up to N bytes of a pinned transfer at Offset.
type ReadChunkArgs struct {
	ID     string
	Offset int64
	N      int
}

// ReadChunkReply carries one CRC-framed chunk.
type ReadChunkReply struct{ Chunk transfer.Chunk }

// TamperPayload implements faults.PayloadTamperer: a Corrupt fault flips a
// payload byte after the frame was CRC'd, so the fetcher's verification
// must catch it. The reply is freshly decoded per call, so flipping in
// place is safe.
func (r *ReadChunkReply) TamperPayload() bool {
	if len(r.Chunk.Data) == 0 {
		return false
	}
	r.Chunk.Data[0] ^= 0xFF
	return true
}

// ReadChunk implements the RPC: return the CRC-framed chunk at the offset.
func (a *Agent) ReadChunk(args ReadChunkArgs, reply *ReadChunkReply) error {
	a.mu.Lock()
	p, ok := a.reads[args.ID]
	a.mu.Unlock()
	if !ok {
		return fmt.Errorf("agent %s: unknown transfer %q", a.name, args.ID)
	}
	if args.Offset < 0 || args.Offset >= int64(len(p.data)) {
		return fmt.Errorf("agent %s: transfer %q offset %d out of range [0,%d)", a.name, args.ID, args.Offset, len(p.data))
	}
	n := args.N
	if n <= 0 {
		n = transfer.DefaultChunkSize
	}
	if rem := int64(len(p.data)) - args.Offset; rem < int64(n) {
		n = int(rem)
	}
	reply.Chunk = transfer.ChunkAt(p.data, args.Offset, n)
	return nil
}

// CloseTransferArgs unpins a fetched transfer.
type CloseTransferArgs struct{ ID string }

// CloseTransferReply is empty.
type CloseTransferReply struct{}

// CloseTransfer implements the RPC: drop the pinned encoding. Unknown IDs
// succeed — closing is advisory and idempotent.
func (a *Agent) CloseTransfer(args CloseTransferArgs, reply *CloseTransferReply) error {
	a.mu.Lock()
	delete(a.reads, args.ID)
	a.mu.Unlock()
	return nil
}

// BeginPushArgs declares an inbound transfer: its ID (the job ID, by the
// controller's convention), exact size, and whole-object CRC.
type BeginPushArgs struct {
	ID   string
	Size int64
	CRC  uint32
}

// BeginPushReply returns the receiver's committed offset: 0 for a fresh
// transfer, >0 when an earlier attempt partially landed — the offset the
// pusher resumes from.
type BeginPushReply struct{ Committed int64 }

// BeginPush implements the RPC. Re-declaring the same object resumes it;
// declaring a different object under the same ID restarts from scratch.
func (a *Agent) BeginPush(args BeginPushArgs, reply *BeginPushReply) error {
	if args.Size < 0 {
		return fmt.Errorf("agent %s: negative push size %d", a.name, args.Size)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if st, ok := a.writes[args.ID]; ok && st.size == args.Size && st.crc == args.CRC {
		reply.Committed = int64(len(st.buf))
		return nil
	}
	a.writes[args.ID] = &inbound{size: args.Size, crc: args.CRC}
	reply.Committed = 0
	return nil
}

// PushChunkArgs appends one CRC-framed chunk to an inbound transfer.
type PushChunkArgs struct {
	ID    string
	Chunk transfer.Chunk
}

// TamperPayload implements faults.PayloadTamperer. The chunk's Data slice
// aliases the pusher's source buffer, so the fault flips a byte on a
// private copy — corrupting the wire, not the sender's retry source.
func (p *PushChunkArgs) TamperPayload() bool {
	if len(p.Chunk.Data) == 0 {
		return false
	}
	data := append([]byte{}, p.Chunk.Data...)
	data[0] ^= 0xFF
	p.Chunk.Data = data
	return true
}

// PushChunkReply is empty.
type PushChunkReply struct{}

// PushChunk implements the RPC: verify the chunk's CRC and append it at
// the committed offset. Chunks entirely below the committed offset are
// acknowledged idempotently (a retried send after a lost ack); a gap is
// refused.
func (a *Agent) PushChunk(args PushChunkArgs, reply *PushChunkReply) error {
	if err := args.Chunk.Verify(); err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	st, ok := a.writes[args.ID]
	if !ok {
		return fmt.Errorf("agent %s: push chunk without begin for %q", a.name, args.ID)
	}
	committed := int64(len(st.buf))
	if args.Chunk.Offset+int64(len(args.Chunk.Data)) <= committed {
		return nil
	}
	if args.Chunk.Offset != committed {
		return fmt.Errorf("agent %s: transfer %q chunk at %d but committed %d (gap)", a.name, args.ID, args.Chunk.Offset, committed)
	}
	if committed+int64(len(args.Chunk.Data)) > st.size {
		return fmt.Errorf("agent %s: transfer %q overflows declared size %d", a.name, args.ID, st.size)
	}
	st.buf = append(st.buf, args.Chunk.Data...)
	return nil
}

// CommitPushArgs finalizes an inbound transfer, staging the checkpoint
// for a ResumeStaged launch under the transfer's ID (the job ID).
type CommitPushArgs struct{ ID string }

// CommitPushReply reports the staged checkpoint's step.
type CommitPushReply struct{ Step int }

// CommitPush implements the RPC: verify the assembled object against the
// declared size and whole-object CRC, decode it, and stage it. Any
// mismatch discards the transfer and is refused — a damaged checkpoint is
// never staged.
func (a *Agent) CommitPush(args CommitPushArgs, reply *CommitPushReply) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	st, ok := a.writes[args.ID]
	if !ok {
		return fmt.Errorf("agent %s: commit without begin for %q", a.name, args.ID)
	}
	delete(a.writes, args.ID)
	if int64(len(st.buf)) != st.size || transfer.Checksum(st.buf) != st.crc {
		return fmt.Errorf("%w: staged object %d bytes crc %08x, declared %d bytes crc %08x",
			transfer.ErrChunkCRC, len(st.buf), transfer.Checksum(st.buf), st.size, st.crc)
	}
	ck, err := elastic.DecodeBytes(st.buf)
	if err != nil {
		return err
	}
	a.staged[args.ID] = &ck
	reply.Step = ck.Step
	return nil
}
