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
	"github.com/elasticflow/elasticflow/internal/obs/tracing"
	"github.com/elasticflow/elasticflow/internal/store"
	"github.com/elasticflow/elasticflow/internal/throughput"
	"github.com/elasticflow/elasticflow/internal/topology"
)

// This file is the platform's durability layer (DESIGN.md §11). The journal
// holds decisions only — what was asked and the platform time it was decided
// at — and one rule reads it: a record at time t means "advance to t, then
// apply". The record is appended (a mutation's always fsynced) before the
// in-memory apply, so an acknowledged HTTP response is never lost to a crash.
// Recovery (Recover) restores the newest snapshot and replays the journal
// suffix through the exact same apply functions the live path uses;
// determinism of the scheduler core then makes the recovered decision, event
// and span trails byte-identical to the uninterrupted run's, and the trail
// hash each record carries turns any difference into a refusal.

// Journal record kinds.
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
	// recAdvance is a clock reading no mutation carried: a read, a tick, or
	// a mutation call with nothing to record (advanceLocked).
	recAdvance = "advance"
)

// snapshotVersion is the snapshot schema this release writes, and the only
// one it restores: a snapshot is the head of a journal, and the journal that
// went with version 1 (no trail hash, every event mirrored as a record) is not
// one replayRecordLocked reads.
const snapshotVersion = 2

// errForeignState refuses a state directory this release did not write.
// There is no conversion: the journal's guarantee is that replay reproduces
// the run, and a journal in another format cannot be held to it.
var errForeignState = errors.New("the state directory was written by a release with a different journal format (DESIGN.md §11) and cannot be replayed by this one; finish or drain it with the release that wrote it, or start from an empty directory")

// ErrShuttingDown rejects mutations that arrive after graceful shutdown has
// begun flushing the journal; the HTTP layer maps it to 503 so a client
// never holds an acknowledged-but-unjournaled write.
var ErrShuttingDown = errors.New("serverless: platform is shutting down")

// recordBody is the body of every journal record: the trail hash the platform
// held when it appended the record, and the op's body. Replay decodes a body
// with a *json.RawMessage in Op, which json fills in place.
type recordBody struct {
	Trail uint64 `json:"trail"`
	Op    any    `json:"op,omitempty"`
}

// An op is one journaled decision: the record kind it is written under, the
// body that record carries, and the apply that runs it at the record's time.
// Every apply starts with the advance to that time. The live path reaches an
// apply only through commitLocked, which records the op first; replay decodes
// a record into the same op (opOf) and runs the same apply.
type op interface {
	kind() string
	// body is what the record carries: a pointer replay decodes into in
	// place, or nil for an op that carries nothing but its time.
	body() any
	applyLocked(p *Platform, now float64) error
}

// opOf is replay's decode table: a record kind to an empty op of that kind.
var opOf = map[string]func() op{
	recSubmit:   func() op { return &submitOp{} },
	recBatch:    func() op { return &batchOp{} },
	recCancel:   func() op { return &cancelOp{} },
	recNodeDown: func() op { return &nodeOp{down: true} },
	recNodeUp:   func() op { return &nodeOp{} },
	recAdvance:  func() op { return advanceOp{} },
}

// advanceOp is the op of an advance record.
type advanceOp struct{}

func (advanceOp) kind() string { return recAdvance }
func (advanceOp) body() any    { return nil }
func (advanceOp) applyLocked(p *Platform, now float64) error {
	p.applyAdvanceLocked(now)
	return nil
}

// journalingLocked reports whether ops should be recorded: a store is
// attached, shutdown has not begun, and the journal has not failed.
func (p *Platform) journalingLocked() bool {
	return p.store != nil && !p.closing && p.broken == nil
}

// mutateLocked runs a mutation entry's op: refused once shutdown has begun or
// the journal has failed, otherwise committed at the current time — there is
// no advance ahead of it; the apply starts with one, exactly as replay of its
// record will — and followed by a snapshot if one is due.
func (p *Platform) mutateLocked(o op) error {
	if err := p.checkMutableLocked(); err != nil {
		return err
	}
	err := p.commitLocked(o, math.Max(p.Now(), p.lastTick))
	p.maybeSnapshotLocked()
	return err
}

// commitLocked is record-then-apply, and the live path's only way to an apply:
// it appends o at time now, then applies o at that time. A mutation's record is
// fsynced; an advance's only when applying it will reschedule. On failure the
// platform wedges: o must not be applied and no later op can be either, or
// the journal would have a hole.
func (p *Platform) commitLocked(o op, now float64) error {
	if p.journalingLocked() {
		durable := o.kind() != recAdvance || p.advanceReschedulesLocked(now)
		lsn, err := p.store.Append(o.kind(), now, recordBody{Trail: p.trail, Op: o.body()}, durable)
		if err != nil {
			p.broken = fmt.Errorf("serverless: journal failed, refusing further mutations: %w", err)
			p.obs.EventNow(obs.KindError, "", tracing.A("op", "journal-append"), tracing.A("err", err.Error()))
			return p.broken
		}
		// The apply stamps its events, and so their spans, with this
		// record's LSN — replay restores the same value from the record.
		p.lsn = lsn
	}
	return o.applyLocked(p, now)
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

// eventLocked is the tee every deterministic platform event goes through,
// live and in replay: it stamps the event with the LSN of the record being
// applied, records it in obs (bus, counters, span) and folds it — time bits,
// kind, job, field keys and values — into the trail hash.
func (p *Platform) eventLocked(t float64, kind, jobID string, fields ...tracing.Attr) {
	p.obs.Event(obs.Event{Time: t, Kind: kind, JobID: jobID, LSN: p.lsn, Fields: fields})
	h := (p.trail ^ math.Float64bits(t)) * trailPrime
	h = foldTrail(foldTrail(h, kind), jobID)
	for _, f := range fields {
		h = foldTrail(foldTrail(h, f.Key), f.Value)
	}
	p.trail = h
}

// trailPrime is the 64-bit FNV prime: the trail is FNV-1a carried from one
// event to the next. Every step is a bijection of h, so once two histories'
// hashes differ no run of equal events brings them back together.
const trailPrime = 1099511628211

// foldTrail folds s and a terminator no UTF-8 string contains into h, so
// neighbouring strings cannot trade bytes unnoticed.
func foldTrail(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * trailPrime
	}
	return (h ^ 0xff) * trailPrime
}

// advanceReschedulesLocked reports whether advancing to now would change
// scheduling state — the last decision's wake-up has come, or at least one
// active job retires: the advances that must be journaled durably before
// applying.
func (p *Platform) advanceReschedulesLocked(now float64) bool {
	if p.wake > 0 && p.wake <= now {
		return true
	}
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
		p.obs.EventNow(obs.KindError, "", tracing.A("op", "store-snapshot"), tracing.A("err", err.Error()))
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
	// Trail is the event trail hash the journal suffix continues from.
	Trail uint64 `json:"trail"`
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
		Version:   snapshotVersion,
		Seq:       p.seq,
		LastTick:  p.lastTick,
		Wake:      p.wake,
		Trail:     p.trail,
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
func (p *Platform) restoreStateLocked(payload []byte) error {
	var st platformState
	if err := json.Unmarshal(payload, &st); err != nil {
		return fmt.Errorf("serverless: decoding snapshot: %w", err)
	}
	if st.Version != snapshotVersion {
		return fmt.Errorf("serverless: snapshot version %d, this release reads %d: %w", st.Version, snapshotVersion, errForeignState)
	}
	p.seq = st.Seq
	p.lastTick = st.LastTick
	p.wake = st.Wake
	p.trail = st.Trail
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
	for _, rec := range tail {
		if err := p.replayRecordLocked(rec); err != nil {
			return nil, err
		}
	}

	// Resume the clock exactly where the journal stopped: Now() == lastTick
	// at this instant, as if no wall time passed while the platform was
	// down.
	p.start = p.clock().Add(-time.Duration(p.lastTick / p.scale * float64(time.Second)))

	p.obs.AddStoreReplayed(len(tail))
	p.obs.ObserveStoreRecovery(time.Since(wallStart).Seconds())
	if n := st.TornTails(); n > 0 {
		p.obs.EventNow(obs.KindRecovery, "", tracing.A("op", "store-recover"),
			tracing.A("replayed", len(tail)), tracing.A("torn_tails", n))
	}
	return p, nil
}

// replayRecordLocked applies one journal record during recovery: the op the
// live path committed, decoded through opOf and applied at the record's time.
// Before it does, the trail hash of everything replay has emitted so far must
// equal the one the live run held when it appended the record — a scheduler
// change that would alter history is refused here, not absorbed. The events
// of the journal's last record are checked by no later record; losing that
// check is what a crash costs.
func (p *Platform) replayRecordLocked(rec store.Record) error {
	var raw json.RawMessage
	body := recordBody{Op: &raw}
	dec := json.NewDecoder(bytes.NewReader(rec.Data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&body); err != nil {
		return fmt.Errorf("serverless: %s record %d has no {trail, op} body (%v): %w", rec.Kind, rec.LSN, err, errForeignState)
	}
	if body.Trail != p.trail {
		return fmt.Errorf("serverless: replay divergence at LSN %d: the run that journaled this %s record had emitted event trail %d, replaying the records before it emitted %d", rec.LSN, rec.Kind, body.Trail, p.trail)
	}
	if !(rec.Time >= p.lastTick) || math.IsInf(rec.Time, 1) {
		return fmt.Errorf("serverless: %s record %d has time %v, but replay stands at %v and a record's time is finite and never earlier", rec.Kind, rec.LSN, rec.Time, p.lastTick)
	}
	newOp, ok := opOf[rec.Kind]
	if !ok {
		return fmt.Errorf("serverless: journal record %d has unknown kind %q: %w", rec.LSN, rec.Kind, errForeignState)
	}
	o := newOp()
	if b := o.body(); b != nil {
		if err := json.Unmarshal(raw, b); err != nil {
			return fmt.Errorf("serverless: decoding %s record %d: %w", rec.Kind, rec.LSN, err)
		}
	}
	p.lsn = rec.LSN
	// An apply error is deterministic in (op, state): the live run met the
	// same one after journaling, returned it to its caller and carried on.
	if err := o.applyLocked(p, rec.Time); err != nil {
		p.obs.EventNow(obs.KindError, "", tracing.A("op", "replay-"+rec.Kind), tracing.A("err", err.Error()))
	}
	return nil
}
