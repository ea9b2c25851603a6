package tracing

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestChromeRoundTrip(t *testing.T) {
	tr := New(42)
	emitLifecycle(tr)
	tr.StartJob(5, "job-0002") // leave one span open
	want := tr.Spans()

	data, err := EncodeChrome(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeChrome(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip diverged:\n got %+v\nwant %+v", got, want)
	}
}

func TestChromeShape(t *testing.T) {
	tr := New(7)
	emitLifecycle(tr)
	data, err := EncodeChrome(tr.Spans())
	if err != nil {
		t.Fatal(err)
	}
	// The viewer contract: a top-level traceEvents array of complete
	// events with µs timestamps — the subset both about:tracing and
	// Perfetto load without converters.
	var doc struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 6 {
		t.Fatalf("got %d events, want 6", len(doc.TraceEvents))
	}
	for i, ev := range doc.TraceEvents {
		if ev["ph"] != "X" {
			t.Fatalf("event %d: ph = %v, want X", i, ev["ph"])
		}
		if _, ok := ev["ts"].(float64); !ok {
			t.Fatalf("event %d: ts missing", i)
		}
		if dur, ok := ev["dur"].(float64); !ok || dur < 1 {
			t.Fatalf("event %d: dur = %v, want >= 1µs", i, ev["dur"])
		}
		if _, ok := ev["args"].(map[string]interface{})["span_id"].(string); !ok {
			t.Fatalf("event %d: args.span_id missing", i)
		}
	}
	// The rescale child starts at t=50s → ts 5e7 µs.
	if ts := doc.TraceEvents[4]["ts"].(float64); ts != 5e7 {
		t.Fatalf("rescale ts = %v µs, want 5e7", ts)
	}
}

func TestChromeTidsGroupByJob(t *testing.T) {
	tr := New(9)
	tr.EmitLSN(0, SpanHeartbeat, "", 0)
	tr.StartJob(0, "a")
	tr.StartJob(0, "b")
	tr.EmitLSN(1, SpanRescale, "a", 0)
	tr.EndJob(2, "a", 0)
	tr.EndJob(2, "b", 0)
	data, err := EncodeChrome(tr.Spans())
	if err != nil {
		t.Fatal(err)
	}
	var doc chromeTrace
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	tids := make(map[string]map[int]bool)
	for _, ev := range doc.TraceEvents {
		j := ev.Args.Job
		if tids[j] == nil {
			tids[j] = make(map[int]bool)
		}
		tids[j][ev.Tid] = true
	}
	if !tids[""][0] || len(tids[""]) != 1 {
		t.Fatalf("platform spans tid = %v, want {0}", tids[""])
	}
	if len(tids["a"]) != 1 || len(tids["b"]) != 1 || reflect.DeepEqual(tids["a"], tids["b"]) {
		t.Fatalf("jobs must each own one distinct tid: a=%v b=%v", tids["a"], tids["b"])
	}
}

func TestChromeDecodeErrors(t *testing.T) {
	if _, err := DecodeChrome([]byte("{")); err == nil {
		t.Fatal("truncated JSON must error")
	}
	bad := `{"traceEvents":[{"name":"x","ph":"X","args":{"span_id":"zz"}}]}`
	if _, err := DecodeChrome([]byte(bad)); err == nil || !strings.Contains(err.Error(), "span_id") {
		t.Fatalf("bad span_id must error, got %v", err)
	}
	badParent := `{"traceEvents":[{"name":"x","ph":"X","args":{"span_id":"01","parent":"nope"}}]}`
	if _, err := DecodeChrome([]byte(badParent)); err == nil || !strings.Contains(err.Error(), "parent") {
		t.Fatalf("bad parent must error, got %v", err)
	}
}
