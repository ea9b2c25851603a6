package serverless

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"strings"

	"github.com/elasticflow/elasticflow/internal/obs"
	"github.com/elasticflow/elasticflow/internal/obs/tracing"
)

// Handler returns one platform's operator and observability plane — the
// routes the front door mounts under /v1/shards/{k}/ (jobs are submitted,
// read and cancelled through the front door's own /v1/jobs):
//
//	GET    /v1/cluster     cluster summary
//	POST   /v1/cluster/servers/{id}/down   declare a server failed (§4.4)
//	POST   /v1/cluster/servers/{id}/up     return a server to the pool
//	GET    /v1/plan        planned future allocations (Algorithm 2 output)
//	GET    /metrics        Prometheus text exposition of the obs registry
//	GET    /debug/events   structured event log (?since=<seq> for the tail,
//	                       &limit=<n> to page)
//	GET    /debug/trace    span trail as Chrome trace-event JSON, loadable
//	                       in Perfetto (?job=<id> for one job's tree)
//
// It stands in for the prototype's gRPC control messages (§5) using only
// the standard library.
func Handler(p *Platform) http.Handler {
	o := p.Obs()
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/plan", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			WriteError(o, w, http.StatusMethodNotAllowed, errors.New("use GET"))
			return
		}
		WriteJSON(o, w, http.StatusOK, p.Plans())
	})
	mux.HandleFunc("/v1/cluster", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			WriteError(o, w, http.StatusMethodNotAllowed, errors.New("use GET"))
			return
		}
		WriteJSON(o, w, http.StatusOK, p.Cluster())
	})
	mux.HandleFunc("/v1/cluster/servers/", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			WriteError(o, w, http.StatusMethodNotAllowed, errors.New("use POST"))
			return
		}
		rest := strings.TrimPrefix(r.URL.Path, "/v1/cluster/servers/")
		idStr, action, ok := strings.Cut(rest, "/")
		if !ok || (action != "down" && action != "up") {
			WriteError(o, w, http.StatusNotFound, errors.New("use /v1/cluster/servers/{id}/down or .../up"))
			return
		}
		server, err := strconv.Atoi(idStr)
		if err != nil {
			WriteError(o, w, http.StatusBadRequest, errors.New("server id must be an integer"))
			return
		}
		if action == "down" {
			evicted, err := p.NodeDown(server)
			if err != nil {
				WriteError(o, w, mutationErrorCode(err, http.StatusBadRequest), err)
				return
			}
			WriteJSON(o, w, http.StatusOK, nodeTransition{Server: server, State: "down", Evicted: evicted})
			return
		}
		if err := p.NodeUp(server); err != nil {
			WriteError(o, w, mutationErrorCode(err, http.StatusBadRequest), err)
			return
		}
		WriteJSON(o, w, http.StatusOK, nodeTransition{Server: server, State: "up"})
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			WriteError(o, w, http.StatusMethodNotAllowed, errors.New("use GET"))
			return
		}
		// Refresh platform-time-derived state so gauges are current even
		// between control-plane calls.
		p.Tick()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := o.Metrics.WritePrometheus(w); err != nil {
			o.IncEncodeError()
			o.EventNow(obs.KindError, "", tracing.A("op", "metrics-write"), tracing.A("err", err.Error()))
		}
	})
	mux.HandleFunc("/debug/events", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			WriteError(o, w, http.StatusMethodNotAllowed, errors.New("use GET"))
			return
		}
		var since uint64
		if s := r.URL.Query().Get("since"); s != "" {
			v, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				WriteError(o, w, http.StatusBadRequest, errors.New("since must be a sequence number"))
				return
			}
			since = v
		}
		limit := 0
		if s := r.URL.Query().Get("limit"); s != "" {
			v, err := strconv.Atoi(s)
			if err != nil || v < 1 {
				WriteError(o, w, http.StatusBadRequest, errors.New("limit must be a positive integer"))
				return
			}
			limit = v
		}
		events := o.Bus.Since(since + 1)
		if limit > 0 && len(events) > limit {
			events = events[:limit]
		}
		// The cursor is the last event returned, never the bus head: an
		// event published after Since must not fall behind it unseen.
		next := since
		if len(events) > 0 {
			next = events[len(events)-1].Seq
		}
		WriteJSON(o, w, http.StatusOK, EventsPage{Events: events, Next: next})
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			WriteError(o, w, http.StatusMethodNotAllowed, errors.New("use GET"))
			return
		}
		tr := o.Tracer()
		if tr == nil {
			WriteError(o, w, http.StatusNotFound, errors.New("tracing is not enabled"))
			return
		}
		spans := tr.Spans()
		if job := r.URL.Query().Get("job"); job != "" {
			spans = tr.Job(job)
		}
		data, err := tracing.EncodeChrome(spans)
		if err != nil {
			o.IncEncodeError()
			WriteError(o, w, http.StatusInternalServerError, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if _, err := w.Write(data); err != nil {
			o.IncEncodeError()
			o.EventNow(obs.KindError, "", tracing.A("op", "trace-write"), tracing.A("err", err.Error()))
		}
	})
	return mux
}

// mutationErrorCode maps a mutation failure to its HTTP status: a request
// arriving after graceful shutdown began flushing the journal is 503 — the
// write was not journaled, so acknowledging it any other way would hand the
// client an acknowledged-but-unjournaled mutation.
func mutationErrorCode(err error, fallback int) int {
	if errors.Is(err, ErrShuttingDown) {
		return http.StatusServiceUnavailable
	}
	return fallback
}

// nodeTransition is the POST /v1/cluster/servers/{id}/{down,up} response.
type nodeTransition struct {
	Server  int      `json:"server"`
	State   string   `json:"state"`
	Evicted []string `json:"evicted,omitempty"`
}

// EventsPage is the GET /debug/events response: the retained events after
// the requested sequence number, and the cursor to pass as ?since= on the
// next poll.
type EventsPage struct {
	Events []obs.Event `json:"events"`
	Next   uint64      `json:"next"`
}

// WriteJSON encodes v before it sends the status, so a value that cannot be
// encoded answers 500 with an error body instead of code with an empty one.
// It is the one JSON reply writer of both HTTP surfaces, the front door's and
// each shard's. Encode and write failures are counted in ef_http_encode_errors_total and
// logged as one event each instead of being silently dropped.
func WriteJSON(o *obs.Obs, w http.ResponseWriter, code int, v interface{}) {
	body, err := json.Marshal(v)
	if err != nil {
		encodeFailed(o, err)
		code = http.StatusInternalServerError
		body, _ = json.Marshal(ErrorBody{Error: err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if _, err := w.Write(append(body, '\n')); err != nil {
		encodeFailed(o, err)
	}
}

func encodeFailed(o *obs.Obs, err error) {
	o.IncEncodeError()
	o.EventNow(obs.KindError, "", tracing.A("op", "http-encode"), tracing.A("err", err.Error()))
}

// ErrorBody is the {"error": ...} body of every non-2xx JSON reply.
type ErrorBody struct {
	Error string `json:"error"`
}

// WriteError answers code with err as an ErrorBody.
func WriteError(o *obs.Obs, w http.ResponseWriter, code int, err error) {
	WriteJSON(o, w, code, ErrorBody{Error: err.Error()})
}
