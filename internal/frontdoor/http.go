package frontdoor

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"github.com/elasticflow/elasticflow/internal/obs"
	"github.com/elasticflow/elasticflow/internal/obs/tracing"
	"github.com/elasticflow/elasticflow/internal/serverless"
)

// Handler returns the front door's HTTP surface, the only place jobs enter,
// are read or are cancelled:
//
//	POST   /v1/jobs            submit through the admission tier (rate
//	                           limit → quota → route → batch); 429 when
//	                           rate-limited, 403 when over quota, 409 when
//	                           admission control dropped the deadline
//	GET    /v1/jobs            merged job list across shards
//	GET    /v1/jobs/{id}       one job (routed by its s<k>- prefix)
//	DELETE /v1/jobs/{id}       cancel (routed)
//	GET    /v1/tenants         per-tenant GPU usage
//	GET    /metrics            front-door series (ef_frontdoor_*,
//	                           aggregated ef_tenant_*)
//	/v1/shards/{k}/...         shard k's operator and observability plane
//	                           (serverless.Handler): its /v1/cluster,
//	                           server down/up, /v1/plan, /metrics,
//	                           /debug/events and /debug/trace
func Handler(fd *FrontDoor) http.Handler {
	o := fd.Obs()
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodPost:
			req, status, err := decodeSubmit(w, r)
			if err != nil {
				serverless.WriteError(o, w, status, err)
				return
			}
			st, err := fd.Submit(req)
			if err != nil {
				serverless.WriteError(o, w, errorCode(err, http.StatusBadRequest), err)
				return
			}
			code := http.StatusCreated
			if st.State == "dropped" {
				code = http.StatusConflict
			}
			serverless.WriteJSON(o, w, code, st)
		case http.MethodGet:
			serverless.WriteJSON(o, w, http.StatusOK, fd.List())
		default:
			serverless.WriteError(o, w, http.StatusMethodNotAllowed, errors.New("use GET or POST"))
		}
	})
	mux.HandleFunc("/v1/jobs/", func(w http.ResponseWriter, r *http.Request) {
		id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
		if id == "" {
			serverless.WriteError(o, w, http.StatusBadRequest, errors.New("missing job id"))
			return
		}
		switch r.Method {
		case http.MethodGet:
			st, err := fd.Get(id)
			if err != nil {
				serverless.WriteError(o, w, http.StatusNotFound, err)
				return
			}
			serverless.WriteJSON(o, w, http.StatusOK, st)
		case http.MethodDelete:
			if err := fd.Cancel(id); err != nil {
				serverless.WriteError(o, w, errorCode(err, http.StatusNotFound), err)
				return
			}
			w.WriteHeader(http.StatusNoContent)
		default:
			serverless.WriteError(o, w, http.StatusMethodNotAllowed, errors.New("use GET or DELETE"))
		}
	})
	mux.HandleFunc("/v1/tenants", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			serverless.WriteError(o, w, http.StatusMethodNotAllowed, errors.New("use GET"))
			return
		}
		// Refresh the epoch caches so the reported usage is current even
		// between periodic ticks.
		fd.Tick()
		serverless.WriteJSON(o, w, http.StatusOK, fd.TenantUsage())
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			serverless.WriteError(o, w, http.StatusMethodNotAllowed, errors.New("use GET"))
			return
		}
		fd.Tick()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := o.Metrics.WritePrometheus(w); err != nil {
			o.IncEncodeError()
			o.EventNow(obs.KindError, "", tracing.A("op", "metrics-write"), tracing.A("err", err.Error()))
		}
	})
	for k := 0; k < fd.Shards(); k++ {
		prefix := fmt.Sprintf("/v1/shards/%d", k)
		mux.Handle(prefix+"/", http.StripPrefix(prefix, serverless.Handler(fd.Shard(k))))
	}
	return mux
}

// MaxRequestBytes bounds a request body at the HTTP edge: a body that grows
// past it is refused with 413.
const MaxRequestBytes = 1 << 20

// decodeSubmit reads a POST /v1/jobs body of at most MaxRequestBytes. On
// failure it also returns the status to answer: 413 for an oversized body,
// 400 for anything else.
func decodeSubmit(w http.ResponseWriter, r *http.Request) (serverless.SubmitRequest, int, error) {
	var req serverless.SubmitRequest
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxRequestBytes)).Decode(&req)
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		return req, http.StatusRequestEntityTooLarge, err
	case err != nil:
		return req, http.StatusBadRequest, err
	}
	return req, 0, nil
}

// errorCode maps a refused submission or cancel to its HTTP status; fallback
// is the route's own failure (400 for a bad submission, 404 for an unknown
// job). A mutation arriving after graceful shutdown began flushing the
// journals is 503 on either route: it was never journaled, and the job may
// well exist.
func errorCode(err error, fallback int) int {
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
		return fallback
	}
}
