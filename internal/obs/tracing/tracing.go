// Package tracing is the deterministic span tracer behind the platform's
// causal job-lifecycle traces (DESIGN.md §13). Every admitted job owns a
// span tree rooted at a job.lifecycle span whose children record the
// decisions and state transitions that shaped its outcome: the admission
// verdict, the plan that justified it, placements, rescales, migrations,
// checkpoint mirrors, node-failure recoveries, and the terminal
// complete/miss span. Scheduler epochs (the plan-cache fold) and agent
// heartbeats record non-job spans alongside. The point spans are not
// written by their call sites: package obs derives each from the event of
// the same transition (Obs.Event), so EmitLSN and EndJob have that one
// caller; interval spans are opened with Begin.
//
// Determinism rules mirror package obs: the tracer never reads a wall
// clock or an RNG. Span IDs are derived from a caller-supplied seed and a
// monotonic counter (splitmix64), and times are domain-time floats stamped
// by the emitter — simulated seconds in the simulator, platform seconds on
// the live platform — so golden and crash-replay tests stay byte-identical.
// Spans that correspond to a journaled mutation carry the WAL LSN assigned
// by internal/store, lining the trace up against the journal like a flight
// recorder.
//
// Every method is safe on a nil *Tracer (it does nothing), so emission
// sites need no guards and a disabled tracer costs one nil check.
package tracing

import (
	"fmt"
	"sort"
	"sync"
)

// The span-name catalog. Point spans are named by package obs's kind→span
// table, from the event they are derived from; obslint enforces that every
// Begin call site outside this package names its interval span with one of
// these constants — a dynamic or unknown span name would break dashboards
// and the golden trails the same way an uncataloged ef_* metric would.
const (
	// SpanJobLifecycle is the per-job root span: submission to terminal
	// complete/miss (or still open for live jobs).
	SpanJobLifecycle = "job.lifecycle"
	// SpanAdmit records the admission verdict (admit or drop, with reason).
	SpanAdmit = "admit"
	// SpanPlan records the admission-time feasibility plan (minimum
	// satisfactory share and projected finish slot) that justified the
	// verdict.
	SpanPlan = "plan"
	// SpanPlace records a job going from zero to a positive allocation —
	// initial placement or a restart placement after eviction.
	SpanPlace = "place"
	// SpanRescale records an elastic worker-count change of a started job.
	SpanRescale = "rescale"
	// SpanMigrate records a cross-server defragmentation migration.
	SpanMigrate = "migrate"
	// SpanCheckpointMirror records one checkpoint mirrored from an agent to
	// the orchestrator.
	SpanCheckpointMirror = "checkpoint.mirror"
	// SpanCheckpointTransfer records one chunked checkpoint movement over
	// the data plane (fetch or push), with its byte/chunk/retry/resume
	// counts as attributes.
	SpanCheckpointTransfer = "checkpoint.transfer"
	// SpanNodeDownRecover records a job evicted by a server failure and the
	// recovery replan that follows.
	SpanNodeDownRecover = "node-down.recover"
	// SpanComplete terminates the lifecycle of a job that met its deadline.
	SpanComplete = "complete"
	// SpanMiss terminates the lifecycle of a job that missed its deadline.
	SpanMiss = "miss"
	// SpanSchedEpoch is one scheduler allocation epoch — the plan-cache
	// fold over the active job set.
	SpanSchedEpoch = "sched.epoch"
	// SpanFrontdoorBatch is one flushed front-door admission batch: the
	// parent of every job lifecycle it admitted, so a job's trail leads
	// back to the batch (and the single plan-cache fold) that carried it.
	SpanFrontdoorBatch = "frontdoor.batch"
	// SpanHeartbeat is one liveness ping from the health monitor to an
	// agent.
	SpanHeartbeat = "heartbeat"
)

// Attr is one ordered key/value pair: a field of an obs event and an
// attribute of a span — a point span's attributes are its event's fields.
// Values are pre-formatted strings so rendering is deterministic and
// allocation-free at read time.
type Attr struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// A builds an attribute from any value via fmt.Sprint (deterministic for the
// bool/int/float/string/Stringer values the emitters use).
func A(key string, value any) Attr {
	return Attr{Key: key, Value: fmt.Sprint(value)}
}

// Ref identifies an open span to its End call. The zero Ref is invalid
// (and is what a nil tracer hands out).
type Ref struct{ id uint64 }

// Valid reports whether the ref names a span.
func (r Ref) Valid() bool { return r.id != 0 }

// Span is one finished (or still-open) span. End < Start never happens;
// an open span exported mid-flight has End == Start and Open == true.
type Span struct {
	// ID is the seed-derived span identifier, unique within one tracer.
	ID uint64 `json:"id"`
	// Parent is the enclosing span's ID (0 for roots).
	Parent uint64 `json:"parent,omitempty"`
	// Name is one of the Span* catalog constants.
	Name string `json:"name"`
	// JobID names the job the span concerns, when any.
	JobID string `json:"job,omitempty"`
	// Start and End are domain time in seconds.
	Start float64 `json:"start"`
	End   float64 `json:"end"`
	// LSN is the WAL log sequence number of the journal record behind the
	// mutation this span corresponds to (0 when no journal record exists —
	// the simulator, or a platform running without a store).
	LSN uint64 `json:"lsn,omitempty"`
	// Open marks a span exported before its End.
	Open bool `json:"open,omitempty"`
	// Attrs carry span-specific detail in emission order.
	Attrs []Attr `json:"attrs,omitempty"`
}

// DefaultCap bounds the closed-span ring when New is given no override.
const DefaultCap = 1 << 15

// Tracer records spans into a bounded ring. All methods are safe on a nil
// receiver and safe for concurrent use.
type Tracer struct {
	seed uint64
	cap  int

	mu sync.Mutex
	// count is the number of spans ever begun. guarded by mu
	count uint64
	// ring holds finished spans in close order. It grows by append up to
	// cap and then wraps, so head is non-zero only at len(ring) == cap.
	// guarded by mu
	ring []Span
	// head indexes the oldest span in ring. guarded by mu
	head int
	// dropped counts closed spans evicted from the ring. guarded by mu
	dropped uint64
	// open maps span ID to its in-flight record. guarded by mu
	open map[uint64]*openSpan
	// roots maps job ID to its open job.lifecycle span ID. guarded by mu
	roots map[string]uint64
}

// openSpan is an in-flight span plus the value of Tracer.count when it
// began — what Spans orders the open set by.
type openSpan struct {
	Span
	seq uint64
}

// New creates a tracer whose span IDs are derived from seed. Two tracers
// with the same seed fed the same call sequence produce byte-identical
// span trails.
func New(seed uint64) *Tracer {
	return &Tracer{
		seed:  seed,
		cap:   DefaultCap,
		open:  make(map[uint64]*openSpan),
		roots: make(map[string]uint64),
	}
}

// WithCap overrides the closed-span ring capacity (min 1). A capacity below
// the number of spans already held evicts the oldest.
func (t *Tracer) WithCap(n int) *Tracer {
	if t == nil {
		return nil
	}
	if n < 1 {
		n = 1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.head != 0 || len(t.ring) > n {
		kept := t.closedLocked(make([]Span, 0, len(t.ring)))
		if over := len(kept) - n; over > 0 {
			t.dropped += uint64(over)
			kept = kept[over:]
		}
		t.ring, t.head = kept, 0
	}
	t.cap = n
	return t
}

// Seed returns the ID seed the tracer was created with.
func (t *Tracer) Seed() uint64 {
	if t == nil {
		return 0
	}
	return t.seed
}

// nextIDLocked derives the next span ID: splitmix64 over seed + counter,
// deterministic and collision-free for any realistic span count.
func (t *Tracer) nextIDLocked() uint64 {
	t.count++
	z := t.seed + t.count*0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// StartJob begins the job.lifecycle root span for a job. Starting a job
// whose root is already open is a no-op, so replayed admissions stay
// idempotent.
func (t *Tracer) StartJob(now float64, jobID string) {
	t.StartJobUnder(now, jobID, Ref{})
}

// StartJobUnder begins the job.lifecycle span for a job as a child of the
// given span — how batched front-door admissions parent every lifecycle
// they carry under one frontdoor.batch span. An invalid parent ref yields
// a root span, identical to StartJob.
func (t *Tracer) StartJobUnder(now float64, jobID string, parent Ref) {
	if t == nil || jobID == "" {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.roots[jobID]; ok {
		return
	}
	id := t.nextIDLocked()
	t.open[id] = &openSpan{
		Span: Span{ID: id, Parent: parent.id, Name: SpanJobLifecycle, JobID: jobID, Start: now, End: now, Open: true},
		seq:  t.count,
	}
	t.roots[jobID] = id
}

// EndJob closes the job.lifecycle root span, stamping the journal LSN of
// the terminating mutation. Unknown jobs are ignored.
func (t *Tracer) EndJob(now float64, jobID string, lsn uint64, attrs ...Attr) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id, ok := t.roots[jobID]
	if !ok {
		return
	}
	delete(t.roots, jobID)
	t.closeLocked(id, now, lsn, attrs)
}

// Begin opens a span. When the job's lifecycle root is open the new span
// becomes its child; otherwise it is a root of its own (scheduler epochs,
// heartbeats). The returned Ref must be passed to End — obslint flags a
// discarded ref as a leak.
func (t *Tracer) Begin(now float64, name, jobID string) Ref {
	if t == nil {
		return Ref{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.nextIDLocked()
	t.open[id] = &openSpan{
		Span: Span{ID: id, Parent: t.roots[jobID], Name: name, JobID: jobID, Start: now, End: now, Open: true},
		seq:  t.count,
	}
	return Ref{id: id}
}

// End closes an open span. Invalid and already-closed refs are ignored.
func (t *Tracer) End(now float64, ref Ref, attrs ...Attr) {
	t.EndLSN(now, ref, 0, attrs...)
}

// EndLSN closes an open span and stamps the journal LSN of the mutation it
// recorded.
func (t *Tracer) EndLSN(now float64, ref Ref, lsn uint64, attrs ...Attr) {
	if t == nil || ref.id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closeLocked(ref.id, now, lsn, attrs)
}

// EmitLSN records an instantaneous span (Start == End) under the job's root,
// stamped with a journal LSN. Its one caller is package obs, which derives
// every point span from an event.
func (t *Tracer) EmitLSN(now float64, name, jobID string, lsn uint64, attrs ...Attr) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.nextIDLocked()
	s := Span{ID: id, Parent: t.roots[jobID], Name: name, JobID: jobID, Start: now, End: now, LSN: lsn, Attrs: attrs}
	t.pushLocked(s)
}

// closeLocked finishes an open span and moves it to the ring.
func (t *Tracer) closeLocked(id uint64, now float64, lsn uint64, attrs []Attr) {
	s, ok := t.open[id]
	if !ok {
		return
	}
	delete(t.open, id)
	s.End = now
	if s.End < s.Start {
		s.End = s.Start
	}
	s.Open = false
	if lsn != 0 {
		s.LSN = lsn
	}
	s.Attrs = append(s.Attrs, attrs...)
	t.pushLocked(s.Span)
}

// pushLocked records a finished span, overwriting the oldest once the ring
// is full.
func (t *Tracer) pushLocked(s Span) {
	if len(t.ring) < t.cap {
		t.ring = append(t.ring, s)
		return
	}
	t.ring[t.head] = s
	t.head++
	if t.head == len(t.ring) {
		t.head = 0
	}
	t.dropped++
}

// closedLocked appends the ring's spans to out, oldest first.
func (t *Tracer) closedLocked(out []Span) []Span {
	out = append(out, t.ring[t.head:]...)
	return append(out, t.ring[:t.head]...)
}

// Spans returns every recorded span: closed spans in close order followed
// by still-open spans in begin order (marked Open, End == Start).
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.closedLocked(make([]Span, 0, len(t.ring)+len(t.open)))
	open := make([]*openSpan, 0, len(t.open))
	for _, s := range t.open {
		open = append(open, s)
	}
	sort.Slice(open, func(i, k int) bool { return open[i].seq < open[k].seq })
	for _, o := range open {
		s := o.Span
		s.Attrs = append([]Attr(nil), s.Attrs...)
		out = append(out, s)
	}
	return out
}

// Job returns the span tree of one job — its lifecycle root and every span
// recorded under that job ID — in the same order Spans uses.
func (t *Tracer) Job(jobID string) []Span {
	if t == nil {
		return nil
	}
	all := t.Spans()
	out := make([]Span, 0, 8)
	for _, s := range all {
		if s.JobID == jobID {
			out = append(out, s)
		}
	}
	return out
}

// Count returns the number of spans ever begun (including evicted ones).
func (t *Tracer) Count() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.count
}

// Dropped returns the number of closed spans evicted from the ring.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}
