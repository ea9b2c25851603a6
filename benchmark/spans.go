package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request share
// Req; Parent names the span that caused this one.
type span struct {
	Name   string
	Req    string
	Parent string
	Start  time.Time
	End    time.Time
}

// spanLog keeps the traced run's spans in memory until the run ends. A nil
// log records nothing, so untraced runs share the call sites.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

func (l *spanLog) add(name, req, parent string, start, end time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, span{name, req, parent, start, end})
	l.mu.Unlock()
}

// timed records f as one span.
func (l *spanLog) timed(name, req, parent string, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	l.add(name, req, parent, start, end)
	return end.Sub(start)
}

// timedEach runs f n times, one span each, and returns the durations in
// microseconds.
func (l *spanLog) timedEach(n int, name, parent string, f func(i int)) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = us(l.timed(name, "", parent, func() { f(i) }))
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format,
// which Perfetto loads directly.
type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// write stores the spans as a Chrome trace, timestamps relative to the
// earliest span.
func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	var origin time.Time
	for _, s := range l.spans {
		if origin.IsZero() || s.Start.Before(origin) {
			origin = s.Start
		}
	}
	events := make([]chromeEvent, 0, len(l.spans))
	for _, s := range l.spans {
		ev := chromeEvent{Name: s.Name, Ph: "X", Ts: us(s.Start.Sub(origin)), Dur: us(s.End.Sub(s.Start)), Pid: 1, Tid: 1}
		if s.Req != "" || s.Parent != "" {
			ev.Args = map[string]string{"req": s.Req, "parent": s.Parent}
		}
		events = append(events, ev)
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
