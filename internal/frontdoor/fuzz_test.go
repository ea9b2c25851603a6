package frontdoor

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/elasticflow/elasticflow/internal/topology"
)

// FuzzSubmitRequest posts arbitrary bytes as the body of POST /v1/jobs to the
// front door's handler, over a fresh in-memory front door (no state
// directory) with one rate-limited, quota-bound tenant per input. The answer
// must be 201 (admitted), 409 (refused with a counter-offer) or another 4xx
// (malformed or invalid, rate-limited, over quota, too large) — never a
// panic and never a 5xx.
func FuzzSubmitRequest(f *testing.F) {
	for _, body := range []string{
		`{"model":"bert","global_batch":64,"iterations":100,"deadline_seconds":100}`,
		`{"tenant":"acme","model":"resnet50","global_batch":128,"iterations":1e6,"deadline_seconds":86400}`,
		`{"model":"resnet50","global_batch":128,"iterations":1e12,"best_effort":true}`,
		`{"model":"bert","global_batch":128,"iterations":1e6,"deadline_seconds":60}`,
		`{"model":"bert","global_batch":64,"iterations":100,"deadline_seconds":100,"soft_deadline":true}`,
		`{"model":"bert","global_batch":64,"iterations":1e308,"deadline_seconds":1e308}`,
		`{"model":"nope","global_batch":-1,"iterations":-5}`,
		`{}`,
		`[1,2]`,
		`not json`,
		``,
	} {
		f.Add([]byte(body))
	}
	tenants, err := ParseTenants("acme:rate=1,burst=1,gpus=4")
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		fd, err := New(Options{
			Shards:        2,
			ShardTopology: topology.Config{Servers: 1, GPUsPerServer: 8},
			Tenants:       tenants,
			Clock:         newTestClock().Now,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			if err := fd.Shutdown(); err != nil {
				t.Error(err)
			}
		}()
		h := Handler(fd)
		// Twice: the second meets the first's job, and the tenant's spent
		// token bucket.
		for i := 0; i < 2; i++ {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
			if c := rec.Code; c != http.StatusCreated && c != http.StatusConflict && (c < 400 || c >= 500) {
				t.Fatalf("POST /v1/jobs %q (attempt %d) = %d %q, want 201, 409 or 4xx", body, i+1, c, rec.Body.String())
			}
		}
	})
}
