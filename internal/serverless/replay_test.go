package serverless

import (
	"encoding/json"
	"strings"
	"testing"

	"github.com/elasticflow/elasticflow/internal/obs"
	"github.com/elasticflow/elasticflow/internal/store"
)

// TestVerifyReplayEvent drives the replay verifier over hand-built journal
// records: the byte-equal record a live run writes, the same event spelled
// differently (still the same event once decoded), and real divergences in
// body and in time.
func TestVerifyReplayEvent(t *testing.T) {
	fields := []obs.Field{obs.F("model", "resnet50"), obs.F("class", "slo")}
	exact, err := json.Marshal(eventBody{Kind: obs.KindAdmit, Job: "job-0001", Fields: fields})
	if err != nil {
		t.Fatal(err)
	}
	var generic map[string]any
	if err := json.Unmarshal(exact, &generic); err != nil {
		t.Fatal(err)
	}
	respelled, err := json.MarshalIndent(generic, "", " ") // keys sorted, whitespace added
	if err != nil {
		t.Fatal(err)
	}
	other, err := json.Marshal(eventBody{Kind: obs.KindAdmit, Job: "job-0002", Fields: fields})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		data    []byte
		time    float64
		wantErr string
	}{
		{"byte-equal", exact, 7, ""},
		{"respelled", respelled, 7, ""},
		{"other-job", other, 7, "replay divergence at LSN 3"},
		{"other-time", exact, 8, "replay divergence at LSN 3"},
		{"undecodable", []byte(`{"kind":`), 7, "decoding event record 3"},
	} {
		p, _ := newTestPlatform(t)
		p.mu.Lock()
		p.replayTail = []store.Record{{LSN: 3, Time: c.time, Kind: recEvent, Data: c.data}}
		p.verifyReplayEventLocked(7, obs.KindAdmit, "job-0001", fields)
		pos, rerr := p.replayPos, p.replayErr
		p.mu.Unlock()
		switch {
		case c.wantErr == "" && (rerr != nil || pos != 1):
			t.Errorf("%s: pos %d, err %v; want the record consumed", c.name, pos, rerr)
		case c.wantErr != "" && (rerr == nil || !strings.Contains(rerr.Error(), c.wantErr) || pos != 0):
			t.Errorf("%s: pos %d, err %v; want %q and the cursor held", c.name, pos, rerr, c.wantErr)
		}
	}
}
