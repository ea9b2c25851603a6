// Package obs is the deterministic observability core every layer of the
// platform emits into and every frontend reads out of: a structured event
// bus (a bounded ring buffer), a metrics registry rendered in Prometheus
// text exposition format whose lifecycle counters are derived from the
// events, the job-lifecycle point spans derived from the same events, and
// the catalog of scheduler-decision traces (admission verdicts with reasons,
// allocation round summaries, rescale/migration accounting).
//
// Determinism rules (see DESIGN.md §8): events carry domain time supplied
// by the publisher — the simulator stamps simulated seconds, the live
// platform its platform clock — and obs itself never reads a wall clock
// except through the injected Options.Clock, so simulator replays stay
// bit-identical and detlint stays clean. Emission is purely additive: no
// decision path may read the bus or the registry back.
package obs

import "github.com/elasticflow/elasticflow/internal/obs/tracing"

// Event kinds. The sim/platform job-lifecycle kinds are the events both
// hosts' engines emit; the sched-* kinds are scheduler decision traces and
// the error kind carries routed failures (accept loops, encode errors).
// KindPlace, KindResize and KindEvict are the transitions that record a span
// and bump no counter: a job's first (or post-eviction) placement, a worker
// count change of a started job — whether or not it is charged a freeze,
// which is the separate KindRescale — and a job losing its workers to a
// failed server.
const (
	KindAdmit      = "admit"
	KindDrop       = "drop"
	KindComplete   = "complete"
	KindRescale    = "rescale"
	KindMigrate    = "migrate"
	KindFailure    = "failure"
	KindRecovery   = "recovery"
	KindCancel     = "cancel"
	KindPlace      = "place"
	KindResize     = "resize"
	KindEvict      = "evict"
	KindError      = "error"
	KindSchedAdmit = "sched-admit"
	KindSchedAlloc = "sched-alloc"
)

// Fault-tolerance event kinds: transport chaos, agent liveness transitions,
// and the checkpoint-mirroring recovery path (DESIGN.md §9).
const (
	KindFault      = "fault-injected"
	KindRetry      = "rpc-retry"
	KindAgentDown  = "agent-down"
	KindAgentUp    = "agent-up"
	KindMirror     = "checkpoint-mirror"
	KindRestore    = "checkpoint-restore"
	KindLost       = "checkpoint-lost"
	KindInfeasible = "deadline-infeasible"
)

// Front-door event kinds: one batch frame per flushed admission batch, so
// the journal and event trail carry the tenant+batch framing end-to-end.
const (
	KindBatch = "batch"
)

// Event is one structured observability record.
type Event struct {
	// Seq is the bus-assigned sequence number, strictly increasing from 1.
	Seq uint64 `json:"seq"`
	// Time is domain time in seconds: simulated time in the simulator,
	// platform seconds on the live platform.
	Time float64 `json:"time"`
	// Kind is one of the Kind* constants.
	Kind string `json:"kind"`
	// JobID names the job the event concerns, when any.
	JobID string `json:"job_id,omitempty"`
	// LSN is the WAL log sequence number of the journal record whose apply
	// emitted the event (0 in the simulator, without a store, and for
	// events no record stands behind). The event's span carries it; the
	// rendered event does not, so a trail reads the same with or without a
	// journal.
	LSN uint64 `json:"-"`
	// Fields carry kind-specific detail in emission order; they are also
	// the attributes of the event's span.
	Fields []tracing.Attr `json:"fields,omitempty"`
}

// Field returns the value of the named field.
func (e Event) Field(key string) (string, bool) {
	for _, f := range e.Fields {
		if f.Key == key {
			return f.Value, true
		}
	}
	return "", false
}
