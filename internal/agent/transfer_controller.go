package agent

import (
	"errors"
	"fmt"
	"net/rpc"

	"github.com/elasticflow/elasticflow/internal/elastic"
	"github.com/elasticflow/elasticflow/internal/faults"
	"github.com/elasticflow/elasticflow/internal/obs/tracing"
	"github.com/elasticflow/elasticflow/internal/transfer"
)

// This file is the controller side of the checkpoint data plane: it
// adapts the agent's chunk RPCs to the transfer.Mover's Peer interface,
// gates concurrent transfers per agent, classifies which errors abort a
// transfer versus retry a chunk, and exports every transfer's counters to
// the ef_transfer_* series plus a checkpoint.transfer span under the
// job's lifecycle trace.

// gate returns the per-agent transfer admission gate, creating it on
// first use. A negative TransferCap disables gating.
func (c *Controller) gate(agentName string) *transfer.Gate {
	if c.opts.TransferCap < 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	g, ok := c.gates[agentName]
	if !ok {
		g = transfer.NewGate(c.opts.TransferCap, nil)
		c.gates[agentName] = g
	}
	return g
}

// transferCall is the single-attempt RPC primitive under the mover's
// retry policy (the mover owns per-chunk retries, so the controller's own
// retry loop must not stack on top of it). Transport failures drop the
// cached connection so the next attempt redials; crashed agents surface
// as *AgentDownError like every other call.
func (c *Controller) transferCall(agentName, method string, args, reply any) error {
	cl, err := c.clientOrRedial(agentName)
	if err != nil {
		var ce *faults.CrashedError
		if errors.As(err, &ce) {
			return &AgentDownError{Agent: agentName, Err: err}
		}
		return err
	}
	if err := c.callOnce(cl, method, args, reply); err != nil {
		if !fatalCall(err) {
			c.dropClient(agentName, cl)
		}
		var ce *faults.CrashedError
		if errors.As(err, &ce) {
			return &AgentDownError{Agent: agentName, Err: err}
		}
		return err
	}
	return nil
}

// transferFatal classifies errors the mover must not retry: the agent is
// gone, the name was never registered, or the agent processed the request
// and refused it for a non-integrity reason. Chunk-CRC refusals are
// always retryable — re-requesting the chunk is the whole point.
func (c *Controller) transferFatal(err error) bool {
	if transfer.IsChunkCRC(err) {
		return false
	}
	if _, ok := IsAgentDown(err); ok {
		return true
	}
	var ce *faults.CrashedError
	if errors.As(err, &ce) {
		return true
	}
	if errors.Is(err, errUnknownAgent) {
		return true
	}
	var se rpc.ServerError
	return errors.As(err, &se)
}

// mover builds a transfer.Mover wired to the controller's backoff, sleep,
// and error classification.
func (c *Controller) mover(slot *transfer.Slot) *transfer.Mover {
	return &transfer.Mover{
		ChunkSize: c.opts.ChunkSize,
		Backoff:   c.backoff,
		Sleep:     c.opts.Sleep,
		Fatal:     c.transferFatal,
		Slot:      slot,
	}
}

// peerAdapter exposes one agent's chunk RPCs as a transfer.Peer.
type peerAdapter struct {
	c     *Controller
	agent string
}

func (p peerAdapter) Read(id string, offset int64, n int) (transfer.Chunk, error) {
	var reply ReadChunkReply
	if err := p.c.transferCall(p.agent, "Agent.ReadChunk", &ReadChunkArgs{ID: id, Offset: offset, N: n}, &reply); err != nil {
		return transfer.Chunk{}, err
	}
	return reply.Chunk, nil
}

func (p peerAdapter) Close(id string) error {
	var reply CloseTransferReply
	return p.c.transferCall(p.agent, "Agent.CloseTransfer", &CloseTransferArgs{ID: id}, &reply)
}

func (p peerAdapter) BeginPush(id string, size int64, crc uint32) (int64, error) {
	var reply BeginPushReply
	if err := p.c.transferCall(p.agent, "Agent.BeginPush", &BeginPushArgs{ID: id, Size: size, CRC: crc}, &reply); err != nil {
		return 0, err
	}
	return reply.Committed, nil
}

func (p peerAdapter) Push(id string, ck transfer.Chunk) error {
	var reply PushChunkReply
	return p.c.transferCall(p.agent, "Agent.PushChunk", &PushChunkArgs{ID: id, Chunk: ck}, &reply)
}

func (p peerAdapter) Commit(id string) error {
	var reply CommitPushReply
	return p.c.transferCall(p.agent, "Agent.CommitPush", &CommitPushArgs{ID: id}, &reply)
}

// observeTransfer exports one finished transfer's counters.
func (c *Controller) observeTransfer(dir string, s transfer.Stats) {
	o := c.opts.Obs
	o.AddTransferBytes(dir, s.Bytes)
	o.AddTransferChunks(dir, s.Chunks)
	o.AddTransferRetries(s.Retries)
	o.AddTransferResumes(s.Resumes)
	o.AddTransferCorruptions(s.Corruptions)
	o.ObserveTransferStall(s.StallSec)
}

// endTransferSpan closes the checkpoint.transfer span with the transfer's
// outcome and counters.
func (c *Controller) endTransferSpan(span tracing.Ref, dir string, ok bool, s transfer.Stats) {
	sink := c.opts.Obs
	sink.Tracer().End(sink.Now(), span,
		tracing.A("dir", dir), tracing.A("ok", ok),
		tracing.A("bytes", s.Bytes), tracing.A("chunks", s.Chunks),
		tracing.A("retries", s.Retries), tracing.A("resumes", s.Resumes),
		tracing.A("corruptions", s.Corruptions))
}

// FetchCheckpoint snapshots jobID on its home agent and streams the
// checkpoint to the controller in CRC-verified chunks — the mirroring
// read. urgent transfers overtake queued best-effort ones at the agent's
// gate and make running best-effort transfers yield at chunk boundaries.
func (c *Controller) FetchCheckpoint(jobID string, urgent bool) (elastic.Checkpoint, transfer.Stats, error) {
	home, ok := c.Home(jobID)
	if !ok {
		return elastic.Checkpoint{}, transfer.Stats{}, fmt.Errorf("agent: job %q is not running anywhere", jobID)
	}
	var offer TransferOffer
	if err := c.call(home, "Agent.OpenTransfer", OpenTransferArgs{JobID: jobID}, &offer); err != nil {
		return elastic.Checkpoint{}, transfer.Stats{}, err
	}
	return c.fetchOffer(jobID, home, offer, urgent)
}

// fetchOffer streams an offered checkpoint from an agent: gate admission,
// chunked fetch with resumption, decode, observability.
func (c *Controller) fetchOffer(jobID, agentName string, offer TransferOffer, urgent bool) (elastic.Checkpoint, transfer.Stats, error) {
	sink := c.opts.Obs
	span := sink.Tracer().Begin(sink.Now(), tracing.CheckpointTransfer, jobID)
	slot := c.gate(agentName).Acquire(urgent)
	m := c.mover(slot)
	data, err := m.Fetch(peerAdapter{c: c, agent: agentName},
		transfer.Offer{ID: offer.ID, Size: offer.Size, CRC: offer.CRC})
	slot.Release()
	m.Stats.StallSec = slot.Waited()
	c.observeTransfer("fetch", m.Stats)
	if err != nil {
		c.endTransferSpan(span, "fetch", false, m.Stats)
		return elastic.Checkpoint{}, m.Stats, err
	}
	ck, err := elastic.DecodeBytes(data)
	c.endTransferSpan(span, "fetch", err == nil, m.Stats)
	if err != nil {
		return elastic.Checkpoint{}, m.Stats, err
	}
	return ck, m.Stats, nil
}

// PushCheckpoint streams a checkpoint to an agent in CRC-verified chunks
// and commits it there, staged for a ResumeStaged launch under jobID.
func (c *Controller) PushCheckpoint(jobID, toAgent string, ck elastic.Checkpoint, urgent bool) (transfer.Stats, error) {
	sink := c.opts.Obs
	span := sink.Tracer().Begin(sink.Now(), tracing.CheckpointTransfer, jobID)
	slot := c.gate(toAgent).Acquire(urgent)
	m := c.mover(slot)
	err := m.Push(peerAdapter{c: c, agent: toAgent}, jobID, ck.EncodeBytes())
	slot.Release()
	m.Stats.StallSec = slot.Waited()
	c.observeTransfer("push", m.Stats)
	c.endTransferSpan(span, "push", err == nil, m.Stats)
	return m.Stats, err
}

// ResumeStaged launches jobID on agentName from a checkpoint moved over
// the data plane: chunked push, commit, launch from the staged copy. It is
// the one resume — after a suspension, an agent loss or a migration.
func (c *Controller) ResumeStaged(jobID string, spec TaskSpec, agentName string, workers int, ck elastic.Checkpoint, urgent bool) (LaunchReply, error) {
	if _, err := c.PushCheckpoint(jobID, agentName, ck, urgent); err != nil {
		return LaunchReply{}, err
	}
	return c.launch(LaunchArgs{JobID: jobID, Spec: spec, Workers: workers, ResumeStaged: true}, agentName)
}
