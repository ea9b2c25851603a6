package serverless

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/elasticflow/elasticflow/internal/obs"
)

func submitOne(t *testing.T, p *Platform) JobStatus {
	t.Helper()
	st, err := p.Submit(SubmitRequest{Model: "resnet50", GlobalBatch: 128, Iterations: 10000, DeadlineSeconds: 7200})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestMetricsEndpoint: GET /metrics serves valid Prometheus text exposition
// and the admission counters move after a Submit.
func TestMetricsEndpoint(t *testing.T) {
	p, _ := newTestPlatform(t)
	srv := httptest.NewServer(Handler(p))
	defer srv.Close()

	submitOne(t, p)

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)

	for _, want := range []string{
		"# TYPE ef_admissions_total counter",
		`ef_admissions_total{verdict="admit"} 1`,
		`ef_admissions_total{verdict="drop"} 0`,
		"# TYPE ef_used_gpus gauge",
		"# TYPE ef_cluster_efficiency gauge",
		"# TYPE ef_rescales_total counter",
		"# TYPE ef_migrations_total counter",
		"# TYPE ef_sched_decision_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// One job on an idle cluster: the used-GPU gauge is nonzero.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "ef_used_gpus ") {
			if strings.TrimPrefix(line, "ef_used_gpus ") == "0" {
				t.Errorf("ef_used_gpus is 0 with a running job")
			}
		}
	}

	// Structural validity: every non-comment line is "<series> <value>".
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Split(line, " ")
		if len(parts) != 2 {
			t.Errorf("malformed exposition line %q", line)
		}
	}
}

// TestDebugEventsEndpoint: GET /debug/events returns the structured log and
// ?since= resumes from the returned cursor.
func TestDebugEventsEndpoint(t *testing.T) {
	p, _ := newTestPlatform(t)
	srv := httptest.NewServer(Handler(p))
	defer srv.Close()

	submitOne(t, p)

	var page EventsPage
	getJSON(t, srv.URL+"/debug/events", &page)
	if len(page.Events) == 0 {
		t.Fatal("no events after Submit")
	}
	sawAdmit := false
	for _, ev := range page.Events {
		if ev.Kind == obs.KindAdmit {
			sawAdmit = true
		}
	}
	if !sawAdmit {
		t.Errorf("event log has no %q event: %+v", obs.KindAdmit, page.Events)
	}
	if page.Next != page.Events[len(page.Events)-1].Seq {
		t.Errorf("next cursor %d != last seq %d", page.Next, page.Events[len(page.Events)-1].Seq)
	}

	// Resuming from the cursor yields nothing new.
	cursor := strconv.FormatUint(page.Next, 10)
	var tail EventsPage
	getJSON(t, srv.URL+"/debug/events?since="+cursor, &tail)
	if len(tail.Events) != 0 {
		t.Errorf("since=%d returned %d stale events", page.Next, len(tail.Events))
	}

	// A second submission appears after the cursor.
	submitOne(t, p)
	getJSON(t, srv.URL+"/debug/events?since="+cursor, &tail)
	if len(tail.Events) == 0 {
		t.Error("no new events after second Submit")
	}
	for _, ev := range tail.Events {
		if ev.Seq <= page.Next {
			t.Errorf("event seq %d not after cursor %d", ev.Seq, page.Next)
		}
	}

	// Malformed cursor is a client error.
	resp, err := http.Get(srv.URL + "/debug/events?since=banana")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("since=banana status = %d, want 400", resp.StatusCode)
	}
}

// TestDebugEventsCursorUnderLoad follows ?since=<next> while another
// goroutine publishes: every event must arrive exactly once, in order. A
// cursor taken from the bus head rather than the last event returned skips
// whatever was published while the page was read.
func TestDebugEventsCursorUnderLoad(t *testing.T) {
	const total = 20000
	o := obs.New(obs.Options{RingSize: 1 << 20})
	p, err := NewPlatform(Options{Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	h := Handler(p)
	base := o.Bus.LastSeq()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < total; i++ {
			o.Bus.Publish(obs.Event{Kind: obs.KindError})
			for t0 := time.Now(); time.Since(t0) < 5*time.Microsecond; {
			}
		}
	}()
	next, seen := base, 0
	for finished := false; ; {
		select {
		case <-done:
			finished = true
		default:
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/events?since="+strconv.FormatUint(next, 10), nil))
		var page EventsPage
		if err := json.NewDecoder(rec.Body).Decode(&page); err != nil {
			t.Fatal(err)
		}
		for _, ev := range page.Events {
			if ev.Seq != next+1 {
				t.Fatalf("cursor %d: next event has seq %d", next, ev.Seq)
			}
			next = ev.Seq
			seen++
		}
		if page.Next != next {
			t.Fatalf("page cursor %d, last event returned %d", page.Next, next)
		}
		if finished && len(page.Events) == 0 {
			break
		}
	}
	if seen != total {
		t.Fatalf("poller saw %d of %d events", seen, total)
	}
}

// TestWriteJSONEncodeError: an unencodable value answers 500 with the
// encoding error — it is found out before the status goes out — increments
// ef_http_encode_errors_total and leaves one error event on the bus
// instead of being dropped.
func TestWriteJSONEncodeError(t *testing.T) {
	o := obs.NewDefault()
	rec := httptest.NewRecorder()
	WriteJSON(o, rec, http.StatusOK, make(chan int))
	var e ErrorBody
	if rec.Code != http.StatusInternalServerError || json.Unmarshal(rec.Body.Bytes(), &e) != nil || !strings.Contains(e.Error, "unsupported type") {
		t.Fatalf("writeJSON of a channel = %d %q, want 500 with the encoding error", rec.Code, rec.Body.String())
	}

	var b strings.Builder
	if err := o.Metrics.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "ef_http_encode_errors_total 1") {
		t.Error("encode error not counted")
	}
	evs := o.Bus.Since(0)
	if len(evs) != 1 || evs[0].Kind != obs.KindError {
		t.Fatalf("want one error event, got %+v", evs)
	}
	if op, _ := evs[0].Field("op"); op != "http-encode" {
		t.Errorf("op = %s", op)
	}
}

func getJSON(t *testing.T, url string, v interface{}) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}
