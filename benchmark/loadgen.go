package main

import (
	"bytes"
	"container/heap"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/elasticflow/elasticflow/internal/serverless"
)

type opKind int

const (
	opSubmit opKind = iota
	opStatus
	opCancel
	opList
	opMetrics
)

// op is one HTTP request the generator owes the server at a due time.
type op struct {
	kind opKind
	due  time.Time
	idx  int    // submission index (opSubmit)
	id   string // job ID (opStatus, opCancel)
}

// sample is one completed request.
type sample struct {
	kind  opKind
	phase byte // 'A' paced, 'B' saturation
	seq   int64
	idx   int       // submission index (opSubmit)
	due   time.Time // when it was to be sent
	sent  time.Time // when a connection took it
	done  time.Time // when the last response byte was read
	code  int
	// failed marks a transport error, a 5xx, an undecodable body or a status
	// that is not a verdict for this kind of request.
	failed bool
	jobID  string
}

// opHeap orders ops by due time.
type opHeap []op

func (h opHeap) Len() int           { return len(h) }
func (h opHeap) Less(i, k int) bool { return h[i].due.Before(h[k].due) }
func (h opHeap) Swap(i, k int)      { h[i], h[k] = h[k], h[i] }
func (h *opHeap) Push(x any)        { *h = append(*h, x.(op)) }
func (h *opHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// pacer hands ops out at their due times. Every connection's goroutine asks
// it for the next op and sleeps in it until that op is due, so whichever
// connection is free at or after a due time sends the request, with no
// hand-off between threads in front of it. Workers may push follow-up ops
// while the schedule runs; it is exhausted once nothing is queued or in
// flight.
type pacer struct {
	mu       sync.Mutex
	queue    opHeap
	inflight int
}

// pacerNap bounds one sleep. Ops pushed while a worker sleeps are follow-ups
// due at least 100 ms later, so a nap this short cannot sleep through one.
const pacerNap = 20 * time.Millisecond

func (p *pacer) push(o op) {
	p.mu.Lock()
	heap.Push(&p.queue, o)
	p.mu.Unlock()
}

// finished marks one released op as fully handled, follow-ups pushed.
func (p *pacer) finished() {
	p.mu.Lock()
	p.inflight--
	p.mu.Unlock()
}

// next blocks until the earliest op is due and returns it, or returns false
// when the schedule is exhausted. late is how long after the op could have
// been released — it was due and this worker was asking — it was: the
// generator's own delay, apart from the wait for a free connection.
func (p *pacer) next() (o op, late time.Duration, ok bool) {
	asked := time.Now()
	for {
		p.mu.Lock()
		wait := time.Millisecond // nothing queued: an op in flight may still push
		if len(p.queue) == 0 {
			if p.inflight == 0 {
				p.mu.Unlock()
				return op{}, 0, false
			}
		} else if wait = time.Until(p.queue[0].due); wait <= 0 {
			o := heap.Pop(&p.queue).(op)
			p.inflight++
			p.mu.Unlock()
			return o, min(-wait, time.Since(asked)), true
		}
		p.mu.Unlock()
		preciseSleep(min(wait, pacerNap))
	}
}

// loadgen drives one server over a fixed set of keep-alive connections.
type loadgen struct {
	base  string
	in    *inputs
	mixed bool
	// clients hold one keep-alive connection each; there are as many as the
	// host has CPUs and no more.
	clients []*http.Client
	seq     atomic.Int64

	mu         sync.Mutex
	samples    []sample
	latenessMs []float64
	problems   []string
}

func newLoadgen(base string, in *inputs, mixed bool) *loadgen {
	g := &loadgen{base: base, in: in, mixed: mixed}
	for i := 0; i < runtime.NumCPU(); i++ {
		g.clients = append(g.clients, &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
			Timeout:   30 * time.Second,
		})
	}
	return g
}

func (g *loadgen) close() {
	for _, c := range g.clients {
		c.CloseIdleConnections()
	}
}

// problem keeps the first few reasons requests failed, for the report.
func (g *loadgen) problem(format string, args ...any) {
	g.mu.Lock()
	if len(g.problems) < 8 {
		g.problems = append(g.problems, fmt.Sprintf(format, args...))
	}
	g.mu.Unlock()
}

// paced is Phase A: an open loop. Submission i is due at start+due[i];
// whichever connection is free at or after that time sends it, and its
// latency runs from the due time. n is how many submissions the phase holds;
// follow-up reads (live_mixed) falling after end are not sent.
func (g *loadgen) paced(start, end time.Time, n int) {
	p := &pacer{}
	for i := 0; i < n; i++ {
		p.push(op{kind: opSubmit, due: start.Add(g.in.due[i]), idx: i})
	}
	if g.mixed {
		for t := start.Add(time.Second); t.Before(end); t = t.Add(time.Second) {
			p.push(op{kind: opList, due: t})
		}
		for t := start.Add(5 * time.Second); t.Before(end); t = t.Add(5 * time.Second) {
			p.push(op{kind: opMetrics, due: t})
		}
	}
	var wg sync.WaitGroup
	for _, c := range g.clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for {
				o, late, ok := p.next()
				if !ok {
					return
				}
				s := g.do(c, o, 'A')
				g.mu.Lock()
				g.latenessMs = append(g.latenessMs, ms(late))
				g.mu.Unlock()
				if g.mixed && s.kind == opSubmit && s.code == http.StatusCreated && !s.failed {
					g.followUps(p, s, end)
				}
				p.finished()
			}
		}(c)
	}
	wg.Wait()
}

// followUps schedules live_mixed's reads beside the writes: the job's status
// 100 ms and 1 s after its 201, and a cancel of one admitted job in twenty
// after 2 s.
func (g *loadgen) followUps(p *pacer, s sample, end time.Time) {
	for _, o := range []op{
		{kind: opStatus, due: s.done.Add(100 * time.Millisecond), id: s.jobID},
		{kind: opStatus, due: s.done.Add(time.Second), id: s.jobID},
		{kind: opCancel, due: s.done.Add(2 * time.Second), id: s.jobID},
	} {
		if o.kind == opCancel && s.idx%20 != 0 {
			continue
		}
		if o.due.Before(end) {
			p.push(o)
		}
	}
}

// saturate is Phase B: a closed loop, one client per connection sending
// submissions back to back from index first until end.
func (g *loadgen) saturate(first int, end time.Time) {
	var next atomic.Int64
	next.Store(int64(first))
	var wg sync.WaitGroup
	for _, c := range g.clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for time.Now().Before(end) {
				i := int(next.Add(1)-1) % len(g.in.bodies)
				g.do(c, op{kind: opSubmit, due: time.Now(), idx: i}, 'B')
			}
		}(c)
	}
	wg.Wait()
}

// do sends one request, checks the answer is a verdict with a decodable
// body, and records the sample.
func (g *loadgen) do(c *http.Client, o op, phase byte) sample {
	s := sample{kind: o.kind, phase: phase, seq: g.seq.Add(1), idx: o.idx, due: o.due}
	var req *http.Request
	var err error
	switch o.kind {
	case opSubmit:
		req, err = http.NewRequest(http.MethodPost, g.base+"/v1/jobs", bytes.NewReader(g.in.bodies[o.idx]))
	case opStatus:
		req, err = http.NewRequest(http.MethodGet, g.base+"/v1/jobs/"+o.id, nil)
	case opCancel:
		req, err = http.NewRequest(http.MethodDelete, g.base+"/v1/jobs/"+o.id, nil)
	case opList:
		req, err = http.NewRequest(http.MethodGet, g.base+"/v1/jobs", nil)
	case opMetrics:
		req, err = http.NewRequest(http.MethodGet, g.base+"/metrics", nil)
	}
	if err != nil {
		panic(fmt.Sprintf("benchmark: building request: %v", err)) // fixed method and URL shapes
	}
	req.Header.Set(requestIDHeader, strconv.FormatInt(s.seq, 10))

	s.sent = time.Now()
	var body []byte
	resp, err := c.Do(req)
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		_ = resp.Body.Close() // read to the end above; nothing left to lose
		s.code = resp.StatusCode
	}
	s.done = time.Now()
	if err != nil {
		s.failed = true
		g.problem("%s: %v", req.URL.Path, err)
	} else if why := g.verdict(&s, o, body); why != "" {
		s.failed = true
		g.problem("%s %s: status %d: %s", req.Method, req.URL.Path, s.code, why)
	}
	g.mu.Lock()
	g.samples = append(g.samples, s)
	g.mu.Unlock()
	return s
}

// verdict returns why a response is not an acceptable answer, or "".
func (g *loadgen) verdict(s *sample, o op, body []byte) string {
	type errorBody struct {
		Error string `json:"error"`
	}
	switch o.kind {
	case opSubmit:
		switch s.code {
		case http.StatusCreated, http.StatusConflict:
			var st serverless.JobStatus
			if err := json.Unmarshal(body, &st); err != nil {
				return "undecodable body: " + err.Error()
			}
			if st.ID == "" {
				return "verdict without a job ID"
			}
			if s.code == http.StatusConflict && !(st.EarliestFeasibleSec > 0) {
				return "409 without a counter-offer (earliest_feasible_sec)"
			}
			s.jobID = st.ID
			return ""
		case http.StatusTooManyRequests, http.StatusForbidden:
			var eb errorBody
			if !g.mixed {
				return "tenant rejection on a workload without tenant limits"
			}
			if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
				return "rejection without an error body"
			}
			return ""
		}
		return "not a verdict"
	case opStatus:
		if s.code == http.StatusNotFound {
			return ""
		}
		var st serverless.JobStatus
		if s.code != http.StatusOK {
			return "not a verdict"
		}
		if err := json.Unmarshal(body, &st); err != nil || st.ID != o.id {
			return "status body does not describe the job"
		}
		return ""
	case opCancel:
		if s.code == http.StatusNoContent || s.code == http.StatusNotFound {
			return ""
		}
		return "not a verdict"
	case opList:
		if s.code != http.StatusOK {
			return "not a verdict"
		}
		// Validated, not decoded: building thousands of job records per
		// list read would make the generator the busiest part of the run.
		if len(body) == 0 || body[0] != '[' || !json.Valid(body) {
			return "list body is not a JSON array"
		}
		return ""
	default: // opMetrics
		if s.code != http.StatusOK || len(body) == 0 {
			return "empty metrics"
		}
		return ""
	}
}

// get fetches one path outside any phase (scrapes, the final list).
func (g *loadgen) get(path string) ([]byte, time.Duration, error) {
	start := time.Now()
	resp, err := g.clients[0].Get(g.base + path)
	if err != nil {
		return nil, 0, err
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close() // read to the end above
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return body, time.Since(start), err
}
