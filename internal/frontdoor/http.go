package frontdoor

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"github.com/elasticflow/elasticflow/internal/obs"
	"github.com/elasticflow/elasticflow/internal/serverless"
)

// Handler returns the front door's HTTP surface:
//
//	POST   /v1/jobs            submit through the admission tier (rate
//	                           limit → quota → route → batch); 429 when
//	                           rate-limited or over quota, 409 when
//	                           admission control dropped the deadline
//	GET    /v1/jobs            merged job list across shards
//	GET    /v1/jobs/{id}       one job (routed by its s<k>- prefix)
//	DELETE /v1/jobs/{id}       cancel (routed)
//	GET    /v1/tenants         per-tenant GPU usage
//	GET    /metrics            front-door series (ef_frontdoor_*,
//	                           aggregated ef_tenant_*)
//	/v1/shards/{k}/...         the per-shard control plane
//	                           (serverless.Handler), including each
//	                           shard's own /metrics, /debug/events and
//	                           /debug/trace; its POST /v1/jobs answers
//	                           405, since a submission there would skip
//	                           the tenant's rate limit and quota
func Handler(fd *FrontDoor) http.Handler {
	o := fd.Obs()
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodPost:
			req, status, err := serverless.DecodeSubmit(w, r)
			if err != nil {
				writeError(o, w, status, err)
				return
			}
			st, err := fd.Submit(req)
			if err != nil {
				writeError(o, w, submitErrorCode(err), err)
				return
			}
			code := http.StatusCreated
			if st.State == "dropped" {
				code = http.StatusConflict
			}
			writeJSON(o, w, code, st)
		case http.MethodGet:
			writeJSON(o, w, http.StatusOK, fd.List())
		default:
			writeError(o, w, http.StatusMethodNotAllowed, errors.New("use GET or POST"))
		}
	})
	mux.HandleFunc("/v1/jobs/", func(w http.ResponseWriter, r *http.Request) {
		id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
		if id == "" {
			writeError(o, w, http.StatusBadRequest, errors.New("missing job id"))
			return
		}
		switch r.Method {
		case http.MethodGet:
			st, err := fd.Get(id)
			if err != nil {
				writeError(o, w, http.StatusNotFound, err)
				return
			}
			writeJSON(o, w, http.StatusOK, st)
		case http.MethodDelete:
			if err := fd.Cancel(id); err != nil {
				writeError(o, w, http.StatusNotFound, err)
				return
			}
			w.WriteHeader(http.StatusNoContent)
		default:
			writeError(o, w, http.StatusMethodNotAllowed, errors.New("use GET or DELETE"))
		}
	})
	mux.HandleFunc("/v1/tenants", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			writeError(o, w, http.StatusMethodNotAllowed, errors.New("use GET"))
			return
		}
		// Refresh the epoch caches so the reported usage is current even
		// between periodic ticks.
		fd.Tick()
		writeJSON(o, w, http.StatusOK, fd.TenantUsage())
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			writeError(o, w, http.StatusMethodNotAllowed, errors.New("use GET"))
			return
		}
		fd.Tick()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := o.Metrics.WritePrometheus(w); err != nil {
			o.IncEncodeError()
			o.EventNow(obs.KindError, "", obs.F("op", "metrics-write"), obs.F("err", err.Error()))
		}
	})
	for k := 0; k < fd.Shards(); k++ {
		prefix := fmt.Sprintf("/v1/shards/%d", k)
		shard := serverless.Handler(fd.Shard(k))
		mux.Handle(prefix+"/", http.StripPrefix(prefix, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
				writeError(o, w, http.StatusMethodNotAllowed, errors.New("submit through the front door: POST /v1/jobs"))
				return
			}
			shard.ServeHTTP(w, r)
		})))
	}
	return mux
}

// submitErrorCode maps front-door rejections to HTTP statuses.
func submitErrorCode(err error) int {
	switch {
	case errors.Is(err, ErrRateLimited):
		// Retryable: the token bucket refills, so backing off helps.
		return http.StatusTooManyRequests
	case errors.Is(err, ErrQuotaExceeded):
		// Not retryable until the tenant releases GPUs: an entitlement
		// refusal, not a pacing signal.
		return http.StatusForbidden
	case errors.Is(err, serverless.ErrShuttingDown):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

type errorBody struct {
	Error string `json:"error"`
}

// writeJSON / writeError mirror the serverless HTTP helpers: an encode
// failure mid-body is counted and logged rather than silently dropped.
func writeJSON(o *obs.Obs, w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		o.IncEncodeError()
		o.EventNow(obs.KindError, "", obs.F("op", "http-encode"), obs.F("err", err.Error()))
	}
}

func writeError(o *obs.Obs, w http.ResponseWriter, code int, err error) {
	writeJSON(o, w, code, errorBody{Error: err.Error()})
}
