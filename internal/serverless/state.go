package serverless

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/elasticflow/elasticflow/internal/job"
	"github.com/elasticflow/elasticflow/internal/model"
	"github.com/elasticflow/elasticflow/internal/obs"
	"github.com/elasticflow/elasticflow/internal/store"
	"github.com/elasticflow/elasticflow/internal/throughput"
	"github.com/elasticflow/elasticflow/internal/topology"
)

// This file is the platform's durability layer (DESIGN.md §11). Every
// scheduler-visible mutation follows record-then-apply against an
// internal/store journal: the record is appended — and fsynced — before the
// in-memory apply, so an acknowledged HTTP response is never lost to a
// crash. Recovery (Recover) restores the newest snapshot and replays the
// journal suffix through the exact same apply functions the live path uses;
// determinism of the scheduler core then makes the recovered decision and
// event trail byte-identical to the uninterrupted run's.

// Journal record kinds. Mutation records carry the platform time the
// decision was made at; replay advances the clock to that time before
// re-applying, so time-dependent admission and allocation decisions
// reproduce exactly.
const (
	recSubmit = "submit"
	// recBatch is one front-door admission batch: the full request list,
	// each tagged with its tenant, journaled as a single durable record so
	// the whole batch admits (or is lost) atomically and replay regenerates
	// the same batch framing in the event trail.
	recBatch    = "batch"
	recCancel   = "cancel"
	recNodeDown = "node-down"
	recNodeUp   = "node-up"
	// recAdvance marks a clock advance. The platform's notion of "now"
	// is state: every later decision time (submit times, deadlines,
	// completion stamps) is measured against it, so recovery must resume
	// the clock at the last observed tick, not the last mutation. An
	// advance that retires a job changes scheduling state and is journaled
	// durably before applying; a pure time observation is journaled
	// non-durably — its loss can only rewind idle time nothing was
	// acknowledged against.
	recAdvance = "advance"
	// recEvent mirrors one deterministic observability event. Event
	// records are appended non-durably (their loss cannot diverge state);
	// replay verifies each re-emitted event byte-for-byte against them,
	// turning the journal into an online divergence detector.
	recEvent = "event"
)

// ErrShuttingDown rejects mutations that arrive after graceful shutdown has
// begun flushing the journal; the HTTP layer maps it to 503 so a client
// never holds an acknowledged-but-unjournaled write.
var ErrShuttingDown = errors.New("serverless: platform is shutting down")

// cancelBody / nodeBody are the journal bodies of the non-submit mutations.
type cancelBody struct {
	ID string `json:"id"`
}
type nodeBody struct {
	Server int `json:"server"`
}

// batchBody is the journal body of one admission batch. Batch is the
// batch ordinal at append time — framing for humans and external readers;
// replay derives the same value by counting, it does not trust the field.
type batchBody struct {
	Batch uint64          `json:"batch"`
	Reqs  []SubmitRequest `json:"reqs"`
}

// eventBody is the journaled mirror of one obs event (Seq is bus-assigned
// and excluded; Time lives on the record).
type eventBody struct {
	Kind   string      `json:"kind"`
	Job    string      `json:"job,omitempty"`
	Fields []obs.Field `json:"fields,omitempty"`
}

// journalingLocked reports whether mutations should be recorded: a store is
// attached, the platform is live (not replaying history), shutdown has not
// begun, and the journal has not failed.
func (p *Platform) journalingLocked() bool {
	return p.store != nil && !p.replaying && !p.closing && p.broken == nil
}

// journalLocked appends one mutation record. On failure the platform
// wedges: the mutation must not be applied (record-then-apply) and no later
// one can be either, or the journal would have a hole.
//
//eflint:journal append
func (p *Platform) journalLocked(kind string, t float64, body any, durable bool) error {
	lsn, err := p.store.Append(kind, t, body, durable)
	if err != nil {
		p.broken = fmt.Errorf("serverless: journal failed, refusing further mutations: %w", err)
		p.obs.EventNow(obs.KindError, "", obs.F("op", "journal-append"), obs.F("err", err.Error()))
		return p.broken
	}
	// The apply that follows stamps its spans with this record's LSN —
	// replay restores the same value from the record itself.
	p.eng.Emit.LSN = lsn
	return nil
}

// checkMutableLocked gates every mutation entry point.
func (p *Platform) checkMutableLocked() error {
	if p.closing {
		return ErrShuttingDown
	}
	if p.broken != nil {
		return p.broken
	}
	return nil
}

// eventLocked is the tee every deterministic platform event goes through.
// Live, it publishes to the bus and mirrors the event into the journal;
// during replay it publishes (rebuilding the bus trail) and verifies the
// re-emitted event against the journaled one — any difference is recorded
// as divergence and fails recovery.
func (p *Platform) eventLocked(t float64, kind, jobID string, fields ...obs.Field) {
	p.obs.Event(t, kind, jobID, fields...)
	if p.replaying {
		p.verifyReplayEventLocked(t, kind, jobID, fields)
		return
	}
	if p.journalingLocked() {
		if _, err := p.store.Append(recEvent, t, eventBody{Kind: kind, Job: jobID, Fields: fields}, false); err != nil {
			p.broken = fmt.Errorf("serverless: journal failed, refusing further mutations: %w", err)
		}
	}
}

// verifyReplayEventLocked checks one replay-emitted event against the
// journal cursor. Events past the journal's end are legal — event records
// are non-durable, so a crash can lose a suffix of them; re-execution
// regenerating the suffix is recovery working, not divergence.
func (p *Platform) verifyReplayEventLocked(t float64, kind, jobID string, fields []obs.Field) {
	if p.replayErr != nil || p.replayPos >= len(p.replayTail) {
		return
	}
	rec := p.replayTail[p.replayPos]
	if rec.Kind != recEvent {
		p.replayErr = fmt.Errorf("serverless: replay divergence at LSN %d: replay emitted %s event, journal has %s record", rec.LSN, kind, rec.Kind)
		return
	}
	got, err := json.Marshal(eventBody{Kind: kind, Job: jobID, Fields: fields})
	if err != nil {
		p.replayErr = err
		return
	}
	// The journaled body is json.Marshal of the same struct, so an equal
	// event is equal bytes; only a mismatch is worth decoding, to compare in
	// canonical form and to word the divergence.
	if rec.Time != t || !bytes.Equal(rec.Data, got) {
		var want eventBody
		if err := json.Unmarshal(rec.Data, &want); err != nil {
			p.replayErr = fmt.Errorf("serverless: decoding event record %d: %w", rec.LSN, err)
			return
		}
		wantRaw, _ := json.Marshal(want)
		if rec.Time != t || !bytes.Equal(got, wantRaw) {
			p.replayErr = fmt.Errorf("serverless: replay divergence at LSN %d: journaled event (t=%v) %s, replay emitted (t=%v) %s",
				rec.LSN, rec.Time, wantRaw, t, got)
			return
		}
	}
	p.replayPos++
}

// completionPendingLocked reports whether advancing to now would retire at
// least one active job — the advances that change scheduling state and
// must therefore be journaled durably before applying.
func (p *Platform) completionPendingLocked(now float64) bool {
	dt := now - p.lastTick
	for _, j := range p.active {
		if j.DoneAfter(p.lastTick, dt) {
			return true
		}
	}
	return false
}

// maybeSnapshotLocked takes a snapshot once enough records accumulated. A
// snapshot failure is logged but not fatal: the journal chain is still
// intact, so recovery merely replays more.
func (p *Platform) maybeSnapshotLocked() {
	if !p.journalingLocked() || p.snapEvery <= 0 || p.store.RecordsSinceSnapshot() < p.snapEvery {
		return
	}
	if err := p.snapshotLocked(); err != nil {
		p.obs.EventNow(obs.KindError, "", obs.F("op", "store-snapshot"), obs.F("err", err.Error()))
	}
}

// snapshotLocked assembles the platform state (snapshot.go) and streams it
// into the store.
func (p *Platform) snapshotLocked() error {
	parts, err := p.snap.assemble(p.stateHeadLocked(), p.stateTailLocked())
	if err != nil {
		return err
	}
	if testHookSnapshot != nil {
		testHookSnapshot(p, parts)
	}
	return p.store.Snapshot(parts...)
}

// Shutdown begins graceful shutdown: mutations arriving after this point
// are rejected with ErrShuttingDown (503 over HTTP), the final state is
// snapshotted, and the journal is flushed and closed. Idempotent. On a
// platform without a store it only marks the platform closed.
func (p *Platform) Shutdown() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closing {
		return nil
	}
	if p.store == nil || p.broken != nil {
		p.closing = true
		return nil
	}
	// One last advance inside the journaled regime, so the snapshot
	// captures completions up to the shutdown instant.
	p.advanceLocked()
	p.closing = true
	err := p.snapshotLocked()
	if cerr := p.store.Close(); err == nil {
		err = cerr
	}
	return err
}

// --- Snapshot state schema -------------------------------------------------

// platformState is the full scheduler-visible state, marshaled into store
// snapshots. Every collection is sorted (or order-preserved where order is
// semantic) so the encoding is deterministic. It is split around Jobs — the
// one collection that grows with history — so a snapshot can be assembled
// from the head, per-job encodings and the tail (snapshot.go); embedded
// fields encode in place, so the JSON is that of one flat struct.
type platformState struct {
	stateHead
	// Jobs is every job ever submitted, sorted by ID.
	Jobs []jobState `json:"jobs"`
	stateTail
}

type stateHead struct {
	Version   int     `json:"version"`
	Seq       int     `json:"seq"`
	LastTick  float64 `json:"last_tick"`
	Completed int     `json:"completed"`
	Dropped   int     `json:"dropped"`
	// Batches counts front-door admission batches applied so far. Additive
	// field: absent in pre-front-door snapshots, which decode as 0.
	Batches uint64 `json:"batches,omitempty"`
	// Wake is the pending scheduler wake-up (0 = none).
	Wake float64 `json:"wake,omitempty"`
	// Down lists failed servers, sorted.
	Down []int `json:"down,omitempty"`
	// Infeasible maps at-risk job IDs to their counter-offers.
	Infeasible map[string]float64 `json:"infeasible,omitempty"`
	// Active preserves p.active's order: the scheduler sorts with
	// sort.Slice (unstable), so element order is decision-relevant.
	Active []string `json:"active,omitempty"`
}

type stateTail struct {
	// Placements is the buddy allocator's owned set (including down-server
	// reservations), sorted by ID. The buddy free list is canonical given
	// the owned set, so this fully determines allocator state.
	Placements []placementState `json:"placements,omitempty"`
}

type jobState struct {
	ID          string  `json:"id"`
	User        string  `json:"user,omitempty"`
	Tenant      string  `json:"tenant,omitempty"`
	Model       string  `json:"model"`
	GlobalBatch int     `json:"global_batch"`
	TotalIters  float64 `json:"total_iters"`
	SubmitTime  float64 `json:"submit_time"`
	// Deadline is +Inf for best-effort jobs, which JSON cannot encode;
	// DeadlineInf carries that case and Deadline is then 0.
	Deadline           float64      `json:"deadline"`
	DeadlineInf        bool         `json:"deadline_inf,omitempty"`
	Class              int          `json:"class"`
	Curve              []curvePoint `json:"curve"`
	MinGPUs            int          `json:"min_gpus"`
	MaxGPUs            int          `json:"max_gpus"`
	RequestedGPUs      int          `json:"requested_gpus,omitempty"`
	RescaleOverheadSec float64      `json:"rescale_overhead_sec"`
	CheckpointBytes    int64        `json:"checkpoint_bytes,omitempty"`
	MigrateOverheadSec float64      `json:"migrate_overhead_sec,omitempty"`
	State              int          `json:"state"`
	DoneIters          float64      `json:"done_iters"`
	GPUs               int          `json:"gpus"`
	FrozenUntil        float64      `json:"frozen_until"`
	Rescales           int          `json:"rescales"`
	CompletionTime     float64      `json:"completion_time"`
}

type curvePoint struct {
	Workers int     `json:"w"`
	Tput    float64 `json:"t"`
}

type placementState struct {
	ID    string `json:"id"`
	Start int    `json:"start"`
	Size  int    `json:"size"`
}

// stateHeadLocked captures everything in the snapshot ahead of the job table.
func (p *Platform) stateHeadLocked() stateHead {
	st := stateHead{
		Version:   1,
		Seq:       p.seq,
		LastTick:  p.lastTick,
		Wake:      p.wake,
		Completed: p.completed,
		Dropped:   p.dropped,
		Batches:   p.batches,
	}
	for s := range p.down {
		st.Down = append(st.Down, s)
	}
	sort.Ints(st.Down)
	if len(p.infeasible) > 0 {
		st.Infeasible = make(map[string]float64, len(p.infeasible))
		for id, offer := range p.infeasible {
			st.Infeasible[id] = offer
		}
	}
	for _, j := range p.active {
		st.Active = append(st.Active, j.ID)
	}
	return st
}

// fillJobState overwrites js with j's snapshot form, reusing js.Curve's
// backing array.
func fillJobState(js *jobState, j *job.Job) {
	*js = jobState{
		ID:                 j.ID,
		User:               j.User,
		Tenant:             j.Tenant,
		Model:              j.Model.Name,
		GlobalBatch:        j.GlobalBatch,
		TotalIters:         j.TotalIters,
		SubmitTime:         j.SubmitTime,
		Deadline:           j.Deadline,
		Class:              int(j.Class),
		Curve:              js.Curve[:0],
		MinGPUs:            j.MinGPUs,
		MaxGPUs:            j.MaxGPUs,
		RequestedGPUs:      j.RequestedGPUs,
		RescaleOverheadSec: j.RescaleOverheadSec,
		CheckpointBytes:    j.CheckpointBytes,
		MigrateOverheadSec: j.MigrateOverheadSec,
		State:              int(j.State),
		DoneIters:          j.DoneIters,
		GPUs:               j.GPUs,
		FrozenUntil:        j.FrozenUntil,
		Rescales:           j.Rescales,
		CompletionTime:     j.CompletionTime,
	}
	if math.IsInf(j.Deadline, 1) {
		js.Deadline, js.DeadlineInf = 0, true
	}
	for _, w := range j.Curve.Workers() {
		js.Curve = append(js.Curve, curvePoint{Workers: w, Tput: j.Curve.At(w)})
	}
}

// stateTailLocked captures what follows the job table.
func (p *Platform) stateTailLocked() stateTail {
	var st stateTail
	for id, b := range p.cluster.Placements() {
		st.Placements = append(st.Placements, placementState{ID: id, Start: b.Start, Size: b.Size})
	}
	sort.Slice(st.Placements, func(i, k int) bool { return st.Placements[i].ID < st.Placements[k].ID })
	return st
}

// restoreStateLocked rebuilds the platform from a snapshot payload onto the
// freshly constructed (empty) platform.
//
//eflint:journal init
func (p *Platform) restoreStateLocked(payload []byte) error {
	var st platformState
	if err := json.Unmarshal(payload, &st); err != nil {
		return fmt.Errorf("serverless: decoding snapshot: %w", err)
	}
	if st.Version != 1 {
		return fmt.Errorf("serverless: unsupported snapshot version %d", st.Version)
	}
	p.seq = st.Seq
	p.lastTick = st.LastTick
	p.wake = st.Wake
	p.completed = st.Completed
	p.dropped = st.Dropped
	p.batches = st.Batches
	for _, js := range st.Jobs {
		spec, err := model.ByName(js.Model)
		if err != nil {
			return fmt.Errorf("serverless: snapshot job %s: %w", js.ID, err)
		}
		pts := make(map[int]float64, len(js.Curve))
		for _, cp := range js.Curve {
			pts[cp.Workers] = cp.Tput
		}
		curve, err := throughput.NewCurve(pts)
		if err != nil {
			return fmt.Errorf("serverless: snapshot job %s curve: %w", js.ID, err)
		}
		j := &job.Job{
			ID:                 js.ID,
			User:               js.User,
			Tenant:             js.Tenant,
			Model:              spec,
			GlobalBatch:        js.GlobalBatch,
			TotalIters:         js.TotalIters,
			SubmitTime:         js.SubmitTime,
			Deadline:           js.Deadline,
			Class:              job.Class(js.Class),
			Curve:              curve,
			MinGPUs:            js.MinGPUs,
			MaxGPUs:            js.MaxGPUs,
			RequestedGPUs:      js.RequestedGPUs,
			RescaleOverheadSec: js.RescaleOverheadSec,
			CheckpointBytes:    js.CheckpointBytes,
			MigrateOverheadSec: js.MigrateOverheadSec,
			State:              job.State(js.State),
			DoneIters:          js.DoneIters,
			GPUs:               js.GPUs,
			FrozenUntil:        js.FrozenUntil,
			Rescales:           js.Rescales,
			CompletionTime:     js.CompletionTime,
		}
		if js.DeadlineInf {
			j.Deadline = math.Inf(1)
		}
		p.addJobLocked(j)
	}
	for _, id := range st.Active {
		j, ok := p.all[id]
		if !ok {
			return fmt.Errorf("serverless: snapshot active job %s missing from job table", id)
		}
		p.active = append(p.active, j)
	}
	for _, ps := range st.Placements {
		if err := p.cluster.Reserve(ps.ID, topology.Block{Start: ps.Start, Size: ps.Size}); err != nil {
			return fmt.Errorf("serverless: restoring placement %s: %w", ps.ID, err)
		}
	}
	for _, s := range st.Down {
		p.down[s] = true
		p.downGPUs += p.cluster.Config().GPUsPerServer
	}
	for id, offer := range st.Infeasible {
		p.infeasible[id] = offer
	}
	return nil
}

// --- Recovery --------------------------------------------------------------

// Recover builds a platform from a state directory: it restores the newest
// snapshot the store recovered, replays the journal suffix through the same
// apply path the live platform uses, and resumes the platform clock at the
// recovered time (the platform clock does not advance across downtime).
// opts.Store must be set and freshly opened. A fresh (empty) directory
// yields a fresh platform, so servers can call Recover unconditionally.
func Recover(opts Options) (*Platform, error) {
	if opts.Store == nil {
		return nil, fmt.Errorf("serverless: Recover requires Options.Store")
	}
	st := opts.Store
	wallStart := time.Now()
	p, err := newPlatform(opts)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if payload, _, ok := st.RecoveredSnapshot(); ok {
		if err := p.restoreStateLocked(payload); err != nil {
			return nil, err
		}
	}
	// The restored fill passes are stale by construction; bump the plan
	// cache generation so no pre-crash pass can leak into post-restore
	// decisions.
	p.ef.InvalidatePlanCache()

	tail := st.RecoveredTail()
	p.replaying = true
	p.replayTail = tail
	p.replayPos = 0
	for p.replayPos < len(tail) {
		rec := tail[p.replayPos]
		if err := p.replayRecordLocked(rec); err != nil {
			return nil, err
		}
		if p.replayErr != nil {
			return nil, p.replayErr
		}
	}
	p.replaying = false
	p.replayTail = nil

	// Resume the clock exactly where the journal stopped: Now() == lastTick
	// at this instant, as if no wall time passed while the platform was
	// down.
	p.start = p.clock().Add(-time.Duration(p.lastTick / p.scale * float64(time.Second)))

	p.obs.AddStoreReplayed(len(tail))
	p.obs.ObserveStoreRecovery(time.Since(wallStart).Seconds())
	if n := st.TornTails(); n > 0 {
		p.obs.EventNow(obs.KindRecovery, "", obs.F("op", "store-recover"),
			obs.F("replayed", len(tail)), obs.F("torn_tails", n))
	}
	return p, nil
}

// replayRecordLocked applies one journal record during recovery. Mutation
// records advance the clock to their decision time and re-run the same
// apply functions as the live path; an event record reached here (rather
// than consumed by an apply) means the live run emitted an event replay did
// not — divergence.
//
//eflint:journal replay
func (p *Platform) replayRecordLocked(rec store.Record) error {
	p.eng.Emit.LSN = rec.LSN
	switch rec.Kind {
	case recAdvance:
		p.replayPos++
		p.advanceToLocked(rec.Time)
	case recSubmit:
		var req SubmitRequest
		if err := json.Unmarshal(rec.Data, &req); err != nil {
			return fmt.Errorf("serverless: decoding submit record %d: %w", rec.LSN, err)
		}
		p.replayPos++
		p.advanceToLocked(rec.Time)
		// An apply error is deterministic in the request: the live run hit
		// the identical error after journaling, mutating nothing; replay
		// records it as operational noise and moves on.
		if _, err := p.applySubmitLocked(req, rec.Time); err != nil {
			p.obs.EventNow(obs.KindError, "", obs.F("op", "replay-submit"), obs.F("err", err.Error()))
		}
	case recBatch:
		var body batchBody
		if err := json.Unmarshal(rec.Data, &body); err != nil {
			return fmt.Errorf("serverless: decoding batch record %d: %w", rec.LSN, err)
		}
		p.replayPos++
		p.advanceToLocked(rec.Time)
		p.applySubmitBatchLocked(body.Reqs, rec.Time)
	case recCancel:
		var body cancelBody
		if err := json.Unmarshal(rec.Data, &body); err != nil {
			return fmt.Errorf("serverless: decoding cancel record %d: %w", rec.LSN, err)
		}
		p.replayPos++
		p.advanceToLocked(rec.Time)
		if err := p.applyCancelLocked(body.ID, rec.Time); err != nil {
			return fmt.Errorf("serverless: replaying cancel of %s (LSN %d): %w", body.ID, rec.LSN, err)
		}
	case recNodeDown, recNodeUp:
		var body nodeBody
		if err := json.Unmarshal(rec.Data, &body); err != nil {
			return fmt.Errorf("serverless: decoding %s record %d: %w", rec.Kind, rec.LSN, err)
		}
		p.replayPos++
		p.advanceToLocked(rec.Time)
		if _, err := p.applyNodeLocked(body.Server, rec.Kind == recNodeDown, rec.Time); err != nil {
			return fmt.Errorf("serverless: replaying %s of %d (LSN %d): %w", rec.Kind, body.Server, rec.LSN, err)
		}
	case recEvent:
		return fmt.Errorf("serverless: replay divergence at LSN %d: journaled %s event was not re-emitted", rec.LSN, kindOfEvent(rec))
	default:
		return fmt.Errorf("serverless: unknown journal record kind %q (LSN %d)", rec.Kind, rec.LSN)
	}
	return nil
}

// kindOfEvent names the event inside an event record for error messages.
func kindOfEvent(rec store.Record) string {
	var body eventBody
	if err := json.Unmarshal(rec.Data, &body); err != nil {
		return "undecodable"
	}
	return body.Kind
}
