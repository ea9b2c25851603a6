package serverless

import (
	"bytes"
	"encoding/json"
	"sort"

	"github.com/elasticflow/elasticflow/internal/job"
)

// This file assembles snapshot payloads (DESIGN.md §11 "Snapshots"). The
// payload is json.Marshal of a platformState, but it is never built as one:
// a job that is Completed, Dropped or Cancelled has left p.active and nothing mutates
// it again, so its jobState JSON is encoded once, at the first snapshot that
// sees it terminal, and kept. Each snapshot then encodes only the head, the
// jobs that can still change and the tail, and hands the store a list of
// byte slices — cached and fresh, in job-ID order — to checksum and write
// through. Encoding cost follows the active set, not the platform's history.

// testHookSnapshot, when set by a test, sees every payload on its way to the
// store, with mu held by the calling goroutine.
var testHookSnapshot func(p *Platform, parts [][]byte)

// snapshotAssembler is the state snapshots keep between each other. The
// zero value is ready to use.
type snapshotAssembler struct {
	// pending is every job not in done: the active jobs, and those that
	// turned terminal since the last snapshot.
	pending []*job.Job
	// done holds the encoding of every terminal job a snapshot has seen,
	// sorted by ID.
	done []encodedJob

	// Scratch reused across snapshots, so one costs no allocation
	// proportional to the state: buf takes the head, the pending jobs and
	// the tail; enc writes into buf; js is the one jobState every job is
	// rendered through.
	buf   bytes.Buffer
	enc   *json.Encoder
	js    jobState
	spans []encodedSpan
	parts [][]byte
}

// encodedJob is one job's element of the snapshot's "jobs" array with the
// separating comma in front: `,{"id":…}`.
type encodedJob struct {
	id  string
	enc []byte
}

// encodedSpan locates one pending job's encodedJob bytes inside buf.
type encodedSpan struct {
	id       string
	off, end int
}

func terminal(j *job.Job) bool {
	return j.State == job.Completed || j.State == job.Dropped || j.State == job.Cancelled
}

// assemble returns the snapshot payload as consecutive pieces, valid until
// the next call; their concatenation is byte-identical to json.Marshal of
// platformState{head, every job sorted by ID, tail}. It renders head, every
// pending job and tail, and moves the jobs that turned terminal into done.
func (a *snapshotAssembler) assemble(head stateHead, tail stateTail) ([][]byte, error) {
	if a.enc == nil {
		a.enc = json.NewEncoder(&a.buf)
	}
	a.buf.Reset()
	// encode appends v's JSON without the newline Encoder ends it with.
	encode := func(v any) error {
		if err := a.enc.Encode(v); err != nil {
			return err
		}
		a.buf.Truncate(a.buf.Len() - 1)
		return nil
	}

	// Head: the object's closing brace gives way to the job table's key.
	if err := encode(&head); err != nil {
		return nil, err
	}
	a.buf.Truncate(a.buf.Len() - 1)
	njobs := len(a.done) + len(a.pending)
	if njobs == 0 {
		a.buf.WriteString(`,"jobs":null`) // what a nil slice marshals to
	} else {
		a.buf.WriteString(`,"jobs":[`)
	}
	headEnd := a.buf.Len()

	// Encode every pending job before touching pending or done, so a
	// failure leaves the assembler as it was.
	a.spans = a.spans[:0]
	for _, j := range a.pending {
		off := a.buf.Len()
		a.buf.WriteByte(',')
		fillJobState(&a.js, j)
		if err := encode(&a.js); err != nil {
			return nil, err
		}
		a.spans = append(a.spans, encodedSpan{id: j.ID, off: off, end: a.buf.Len()})
	}

	// Tail: its opening brace becomes the comma after the job table, unless
	// the tail is empty.
	tailOff := a.buf.Len()
	if njobs > 0 {
		a.buf.WriteByte(']')
	}
	tailObj := a.buf.Len()
	if err := encode(&tail); err != nil {
		return nil, err
	}
	if a.buf.Len() == tailObj+len(`{}`) {
		a.buf.Truncate(tailObj)
		a.buf.WriteByte('}')
	} else {
		a.buf.Bytes()[tailObj] = ','
	}
	buf := a.buf.Bytes()

	// Jobs that turned terminal move from pending into done, their bytes
	// copied out of the scratch buffer; the rest stay pending.
	var fresh []encodedJob
	kept, live := a.pending[:0], a.spans[:0]
	for i, j := range a.pending {
		sp := a.spans[i]
		if terminal(j) {
			fresh = append(fresh, encodedJob{id: j.ID, enc: append([]byte(nil), buf[sp.off:sp.end]...)})
			continue
		}
		kept, live = append(kept, j), append(live, sp)
	}
	for i := len(kept); i < len(a.pending); i++ {
		a.pending[i] = nil
	}
	a.pending = kept
	a.mergeDone(fresh)
	sort.Slice(live, func(i, k int) bool { return live[i].id < live[k].id })

	// Emit head, the two ID-sorted job lists merged, tail. The first job
	// sheds its leading comma.
	parts := append(a.parts[:0], buf[:headEnd])
	d := 0
	for _, sp := range live {
		for ; d < len(a.done) && a.done[d].id < sp.id; d++ {
			parts = append(parts, a.done[d].enc)
		}
		parts = append(parts, buf[sp.off:sp.end])
	}
	for ; d < len(a.done); d++ {
		parts = append(parts, a.done[d].enc)
	}
	if njobs > 0 {
		parts[1] = parts[1][1:]
	}
	a.parts = append(parts, buf[tailOff:])
	return a.parts, nil
}

// mergeDone merges fresh (any order) into the ID-sorted done list, moving
// only the entries that sort after the smallest fresh ID.
func (a *snapshotAssembler) mergeDone(fresh []encodedJob) {
	sort.Slice(fresh, func(i, k int) bool { return fresh[i].id < fresh[k].id })
	i, m := len(a.done)-1, len(fresh)-1
	a.done = append(a.done, fresh...)
	for w := len(a.done) - 1; m >= 0; w-- {
		if i >= 0 && a.done[i].id > fresh[m].id {
			a.done[w] = a.done[i]
			i--
		} else {
			a.done[w] = fresh[m]
			m--
		}
	}
}
