// Command efserver runs the ElasticFlow serverless platform: an HTTP/JSON
// control plane over a virtual GPU cluster.
//
// Usage:
//
//	efserver [-addr :8080] [-servers 2] [-gpus-per-server 8] [-timescale 1]
//	         [-state-dir DIR] [-snapshot-every 256] [-chaos 1@30s+60s,kill@90s]
//	         [-shards K] [-tenants SPEC] [-batch-max 64]
//
// Submit a training function with:
//
//	curl -X POST localhost:8080/v1/jobs -d '{
//	  "model": "resnet50", "global_batch": 128,
//	  "iterations": 100000, "deadline_seconds": 3600}'
//
// -state-dir makes the control plane durable (DESIGN.md §11): every mutation
// is journaled before it is acknowledged — one record, one fsync — and a
// restart pointing at the same directory recovers the exact pre-crash state:
// admitted jobs keep their deadlines, and the platform clock resumes where it
// stopped. The journal holds decisions only (a submission, batch, cancel or
// server transition, or the clock reading of a tick or read), so
// -snapshot-every N snapshots and truncates it every N decisions, and
// recovery re-decides at most N of them. A directory written by a release
// with another journal format is refused at start-up, not converted.
//
// -chaos takes a comma-separated failure schedule in platform time:
// "1@30s+60s" fails server 1 at t=30s and recovers it 60s later (omit the
// +duration to leave it down); "kill@90s" SIGKILLs the whole process at
// t=90s — the crash half of a durability drill, restart it against the same
// -state-dir to run the recovery half. Server failures are also injectable
// at runtime via POST /v1/cluster/servers/{id}/down and .../up.
//
// -shards K (K>1) or -tenants enables the multi-tenant front door
// (DESIGN.md §16): submissions tagged with a tenant namespace pass
// per-tenant token-bucket rate limits and GPU quotas, then batch per
// scheduling epoch onto one of K control-plane shards, each owning its own
// -servers × -gpus-per-server partition and (with -state-dir) its own
// WAL+snapshot directory under <state-dir>/shard-<k>. -tenants takes
// "name:rate=R,burst=B,gpus=G" specs, semicolon-separated. Per-shard
// control planes (including each shard's /metrics, /debug/events and
// /debug/trace) are served under /v1/shards/{k}/; -chaos is a
// single-platform feature — inject per-shard failures over HTTP instead.
//
// Observability: GET /metrics serves Prometheus text exposition,
// GET /debug/events?since=<seq>&limit=<n> the structured scheduler event
// log, and GET /debug/trace?job=<id> the causal span trail as Perfetto-
// loadable Chrome trace-event JSON. -pprof additionally serves the standard
// net/http/pprof profiling endpoints under /debug/pprof/ (off by default:
// profiling handlers on a control plane are an operator opt-in).
// SIGINT/SIGTERM flush the journal, then drain in-flight requests; mutations
// arriving after the flush begins are rejected with 503.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/ on DefaultServeMux; served only with -pprof
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/elasticflow/elasticflow/internal/frontdoor"
	"github.com/elasticflow/elasticflow/internal/obs"
	"github.com/elasticflow/elasticflow/internal/obs/tracing"
	"github.com/elasticflow/elasticflow/internal/serverless"
	"github.com/elasticflow/elasticflow/internal/store"
	"github.com/elasticflow/elasticflow/internal/topology"
)

// readHeaderTimeout bounds how long a client may take to send a request's
// headers, so a stalled or trickling connection cannot hold a server
// goroutine open indefinitely.
const readHeaderTimeout = 10 * time.Second

// chaosEvent is one scheduled chaos action, in platform seconds: a server
// state flip, or (kill) a SIGKILL of the whole process.
type chaosEvent struct {
	at     float64
	server int
	down   bool
	kill   bool
}

// parseChaos parses "server@start[+duration]" and "kill@start" entries,
// comma-separated, into a time-ordered event list.
func parseChaos(spec string) ([]chaosEvent, error) {
	var evs []chaosEvent
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		srvStr, when, ok := strings.Cut(part, "@")
		if !ok {
			return nil, fmt.Errorf("chaos entry %q: want server@start[+duration] or kill@start", part)
		}
		if srvStr == "kill" {
			start, err := time.ParseDuration(when)
			if err != nil {
				return nil, fmt.Errorf("chaos entry %q: bad start: %w", part, err)
			}
			evs = append(evs, chaosEvent{at: start.Seconds(), kill: true})
			continue
		}
		server, err := strconv.Atoi(srvStr)
		if err != nil {
			return nil, fmt.Errorf("chaos entry %q: bad server: %w", part, err)
		}
		startStr, durStr, hasDur := strings.Cut(when, "+")
		start, err := time.ParseDuration(startStr)
		if err != nil {
			return nil, fmt.Errorf("chaos entry %q: bad start: %w", part, err)
		}
		evs = append(evs, chaosEvent{at: start.Seconds(), server: server, down: true})
		if hasDur {
			dur, err := time.ParseDuration(durStr)
			if err != nil {
				return nil, fmt.Errorf("chaos entry %q: bad duration: %w", part, err)
			}
			evs = append(evs, chaosEvent{at: (start + dur).Seconds(), server: server, down: false})
		}
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].at < evs[j].at })
	return evs, nil
}

// buildPlatform constructs the platform, durable when stateDir is set: a
// directory holding recovered state resumes through the journal replay path,
// an empty one starts fresh — callers never have to care which.
func buildPlatform(opts serverless.Options, stateDir string, snapEvery int) (*serverless.Platform, error) {
	if stateDir == "" {
		return serverless.NewPlatform(opts)
	}
	st, err := store.Open(stateDir, store.Options{Obs: opts.Obs})
	if err != nil {
		return nil, err
	}
	opts.Store = st
	opts.SnapshotEvery = snapEvery
	if st.HasState() {
		return serverless.Recover(opts)
	}
	return serverless.NewPlatform(opts)
}

// run is the whole server, factored out of main so the crash-restart e2e can
// re-exec it: parse args, build (or recover) the platform, serve until a
// signal, then flush the journal and drain. The listen address actually
// bound (addr may be ":0") is announced on stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("efserver", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	servers := fs.Int("servers", 2, "virtual servers (power of two)")
	perServer := fs.Int("gpus-per-server", 8, "GPUs per server (power of two)")
	timescale := fs.Float64("timescale", 1, "platform seconds per wall second")
	chaos := fs.String("chaos", "", "chaos schedule, e.g. 1@30s+60s,kill@90s (platform time)")
	stateDir := fs.String("state-dir", "", "directory for the durable journal + snapshots (empty: in-memory only)")
	snapEvery := fs.Int("snapshot-every", 256, "decisions journaled between snapshots — recovery replays at most this many (with -state-dir; 0 disables)")
	pprofOn := fs.Bool("pprof", false, "serve net/http/pprof profiling endpoints under /debug/pprof/")
	shards := fs.Int("shards", 1, "control-plane shards behind the multi-tenant front door (>1 enables it; each shard owns its own -servers × -gpus-per-server partition and WAL)")
	tenantSpec := fs.String("tenants", "", "per-tenant policy, e.g. acme:rate=100,burst=200,gpus=32;globex:gpus=16 (implies the front door)")
	batchMax := fs.Int("batch-max", 64, "max submissions one front-door admission batch may carry")
	if err := fs.Parse(args); err != nil {
		return err
	}

	schedule, err := parseChaos(*chaos)
	if err != nil {
		return err
	}

	tenants, err := frontdoor.ParseTenants(*tenantSpec)
	if err != nil {
		return err
	}
	if *shards > 1 || len(tenants) > 0 {
		if len(schedule) > 0 {
			return fmt.Errorf("efserver: -chaos targets the single-platform mode; inject per-shard failures via POST /v1/shards/{k}/v1/cluster/servers/{id}/down instead")
		}
		return runFrontDoor(frontdoor.Options{
			Shards:        *shards,
			ShardTopology: topology.Config{Servers: *servers, GPUsPerServer: *perServer},
			Tenants:       tenants,
			MaxBatch:      *batchMax,
			TimeScale:     *timescale,
			StateDir:      *stateDir,
			SnapshotEvery: *snapEvery,
		}, *addr, *pprofOn, stdout)
	}
	// The server always traces: span trails are bounded by the ring and
	// cost one mutex hop per lifecycle step, and /debug/trace is the only
	// way to reconstruct a causal history after the fact.
	p, err := buildPlatform(serverless.Options{
		Topology:  topology.Config{Servers: *servers, GPUsPerServer: *perServer},
		TimeScale: *timescale,
		Obs:       obs.New(obs.Options{Tracer: tracing.New(1)}),
	}, *stateDir, *snapEvery)
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Periodic ticks complete jobs, reschedule between API calls, and fire
	// the chaos schedule against platform time. The goroutine exits with
	// the process instead of leaking (the old time.Tick never stopped).
	tickerDone := make(chan struct{})
	go func() {
		defer close(tickerDone)
		t := time.NewTicker(time.Second)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				now := p.Now()
				for len(schedule) > 0 && schedule[0].at <= now {
					ev := schedule[0]
					schedule = schedule[1:]
					switch {
					case ev.kill:
						// The crash half of a durability drill: no flush, no
						// drain — the journal alone must carry the state.
						log.Printf("chaos: SIGKILL at t=%.0fs", now)
						if err := syscall.Kill(os.Getpid(), syscall.SIGKILL); err != nil {
							log.Printf("chaos: kill: %v", err)
						}
					case ev.down:
						evicted, err := p.NodeDown(ev.server)
						if err != nil {
							log.Printf("chaos: server %d down: %v", ev.server, err)
							continue
						}
						log.Printf("chaos: server %d down at t=%.0fs (evicted %d jobs)", ev.server, now, len(evicted))
					default:
						if err := p.NodeUp(ev.server); err != nil {
							log.Printf("chaos: server %d up: %v", ev.server, err)
							continue
						}
						log.Printf("chaos: server %d recovered at t=%.0fs", ev.server, now)
					}
				}
				p.Tick()
			}
		}
	}()

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		stop()
		<-tickerDone
		return err
	}
	handler := serverless.Handler(p)
	if *pprofOn {
		// The pprof handlers live on DefaultServeMux (the blank import
		// above); route only their prefix there so the platform API stays
		// the custom mux.
		mux := http.NewServeMux()
		mux.Handle("/debug/pprof/", http.DefaultServeMux)
		mux.Handle("/", handler)
		handler = mux
	}
	srv := &http.Server{Handler: handler, ReadHeaderTimeout: readHeaderTimeout}
	fmt.Fprintf(stdout, "efserver: %d GPUs, timescale %.0fx, listening on %s (metrics on /metrics, events on /debug/events, trace on /debug/trace)\n",
		*servers**perServer, *timescale, l.Addr())
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()

	select {
	case err := <-serveErr:
		// Listener failed before any signal.
		stop()
		<-tickerDone
		return err
	case <-ctx.Done():
	}
	log.Print("efserver: shutting down")
	// Flush the journal first: from here on mutations are rejected with 503
	// (the write would not be durable), while reads keep draining below.
	if err := p.Shutdown(); err != nil {
		log.Printf("efserver: journal flush: %v", err)
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("efserver: shutdown: %v", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("efserver: serve: %v", err)
	}
	<-tickerDone
	return nil
}

// runFrontDoor serves the sharded multi-tenant mode: K shard platforms with
// their own WALs behind the batched admission tier (DESIGN.md §16).
func runFrontDoor(opts frontdoor.Options, addr string, pprofOn bool, stdout io.Writer) error {
	fd, err := frontdoor.New(opts)
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	tickerDone := make(chan struct{})
	go func() {
		defer close(tickerDone)
		t := time.NewTicker(time.Second)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				// The front door's scheduling epoch: advance every shard
				// and refresh the quota/capacity caches.
				fd.Tick()
			}
		}
	}()

	l, err := net.Listen("tcp", addr)
	if err != nil {
		stop()
		<-tickerDone
		return err
	}
	handler := frontdoor.Handler(fd)
	if pprofOn {
		mux := http.NewServeMux()
		mux.Handle("/debug/pprof/", http.DefaultServeMux)
		mux.Handle("/", handler)
		handler = mux
	}
	srv := &http.Server{Handler: handler, ReadHeaderTimeout: readHeaderTimeout}
	shards := fd.Shards()
	fmt.Fprintf(stdout, "efserver: front door over %d shard(s), %d GPUs total, listening on %s (front-door metrics on /metrics, per-shard planes on /v1/shards/{k}/)\n",
		shards, shards*opts.ShardTopology.Servers*opts.ShardTopology.GPUsPerServer, l.Addr())
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()

	select {
	case err := <-serveErr:
		stop()
		<-tickerDone
		return err
	case <-ctx.Done():
	}
	log.Print("efserver: shutting down front door")
	// Drain batchers and flush every shard journal first, so mutations are
	// rejected with 503 while reads keep draining below.
	if err := fd.Shutdown(); err != nil {
		log.Printf("efserver: shard shutdown: %v", err)
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("efserver: shutdown: %v", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("efserver: serve: %v", err)
	}
	<-tickerDone
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}
