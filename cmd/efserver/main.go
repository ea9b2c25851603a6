// Command efserver runs the ElasticFlow serverless platform: the multi-tenant
// front door (DESIGN.md §16) over K control-plane shards, each a serverless
// platform over its own virtual GPU cluster.
//
// Usage:
//
//	efserver [-addr :8080] [-servers 2] [-gpus-per-server 8] [-timescale 1]
//	         [-shards 1] [-tenants SPEC] [-batch-max 64]
//	         [-state-dir DIR] [-snapshot-every 256] [-pprof]
//
// Submit a training function with:
//
//	curl -X POST localhost:8080/v1/jobs -d '{
//	  "model": "resnet50", "global_batch": 128,
//	  "iterations": 100000, "deadline_seconds": 3600}'
//
// Every submission passes the front door: an optional "tenant" field selects
// the per-tenant token-bucket rate limit and GPU quota named by -tenants
// ("name:rate=R,burst=B,gpus=G" specs, semicolon-separated; tenants not named
// are unconstrained), then it is routed to one of -shards K shards and
// admitted in a batch of at most -batch-max. Each shard owns its own -servers
// × -gpus-per-server partition, and job IDs carry their shard ("s0-job-0001").
// GET/DELETE /v1/jobs/{id}, GET /v1/jobs and GET /v1/tenants are served at the
// root; each shard's operator and observability plane — /v1/cluster, /v1/plan,
// /metrics, /debug/events, /debug/trace — is mounted under /v1/shards/{k}/,
// while the root /metrics serves the front door's own ef_frontdoor_* and
// aggregated ef_tenant_* series.
//
// -state-dir makes the control plane durable (DESIGN.md §11): every mutation
// is journaled before it is acknowledged — one record, one fsync — in shard k's
// own directory <state-dir>/shard-<k>, and a restart pointing at the same
// directory recovers the exact pre-crash state: admitted jobs keep their
// deadlines, and the platform clock resumes where it stopped. The journal
// holds decisions only (a submission, batch, cancel or server transition, or
// the clock reading of a tick or read), so -snapshot-every N snapshots and
// truncates it every N decisions, and recovery re-decides at most N of them.
// A directory the server would only partly open — one written with more
// shards, or holding a journal at its top level — is refused at start-up, as
// is one written by a release with another journal format; none is converted.
//
// Server failures are injected at runtime: POST
// /v1/shards/{k}/v1/cluster/servers/{id}/down fails a server of shard k and
// .../up returns it. The crash half of a durability drill is kill -9; restart
// against the same -state-dir for the recovery half.
//
// GET /v1/shards/{k}/debug/events?since=<seq>&limit=<n> pages a shard's
// structured scheduler event log, and GET /v1/shards/{k}/debug/trace?job=<id>
// serves its causal span trail as Perfetto-loadable Chrome trace-event JSON.
// -pprof additionally serves the standard net/http/pprof profiling endpoints
// under /debug/pprof/ (off by default: profiling handlers on a control plane
// are an operator opt-in). SIGINT/SIGTERM drain the admission batches and
// flush every journal, then drain in-flight requests; mutations arriving after
// the flush begins are rejected with 503.
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
	"syscall"
	"time"

	"github.com/elasticflow/elasticflow/internal/frontdoor"
	"github.com/elasticflow/elasticflow/internal/topology"
)

// readHeaderTimeout bounds how long a client may take to send a request's
// headers, so a stalled or trickling connection cannot hold a server
// goroutine open indefinitely.
const readHeaderTimeout = 10 * time.Second

// idleTimeout bounds how long a keep-alive connection may sit idle between
// requests before the server closes it, so idle clients cannot pin
// connections and their goroutines forever.
const idleTimeout = 3 * time.Minute

// newServer is the server run serves handler on, with the connection timeouts
// above; idle is idleTimeout except in tests, which cannot wait minutes.
func newServer(handler http.Handler, idle time.Duration) *http.Server {
	return &http.Server{Handler: handler, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idle}
}

// run is the whole server, factored out of main so the crash-restart e2e can
// re-exec it: parse args, build (or recover) the front door and its shards,
// serve until a signal, then flush the journals and drain. The listen address
// actually bound (addr may be ":0") is announced on stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("efserver", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	servers := fs.Int("servers", 2, "virtual servers per shard (power of two)")
	perServer := fs.Int("gpus-per-server", 8, "GPUs per server (power of two)")
	timescale := fs.Float64("timescale", 1, "platform seconds per wall second")
	stateDir := fs.String("state-dir", "", "directory for the durable journals + snapshots, one shard-<k> directory per shard (empty: in-memory only)")
	snapEvery := fs.Int("snapshot-every", 256, "decisions journaled between snapshots — recovery replays at most this many (with -state-dir; 0 disables)")
	pprofOn := fs.Bool("pprof", false, "serve net/http/pprof profiling endpoints under /debug/pprof/")
	shards := fs.Int("shards", 1, "control-plane shards behind the front door, each owning its own -servers × -gpus-per-server partition and WAL")
	tenantSpec := fs.String("tenants", "", "per-tenant policy, e.g. acme:rate=100,burst=200,gpus=32;globex:gpus=16")
	batchMax := fs.Int("batch-max", 64, "max submissions one admission batch may carry")
	if err := fs.Parse(args); err != nil {
		return err
	}
	tenants, err := frontdoor.ParseTenants(*tenantSpec)
	if err != nil {
		return err
	}
	shardTopology := topology.Config{Servers: *servers, GPUsPerServer: *perServer}
	fd, err := frontdoor.New(frontdoor.Options{
		Shards:        *shards,
		ShardTopology: shardTopology,
		Tenants:       tenants,
		MaxBatch:      *batchMax,
		TimeScale:     *timescale,
		StateDir:      *stateDir,
		SnapshotEvery: *snapEvery,
	})
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

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		stop()
		<-tickerDone
		return errors.Join(err, fd.Shutdown())
	}
	handler := frontdoor.Handler(fd)
	if *pprofOn {
		// The pprof handlers live on DefaultServeMux (the blank import
		// above); route only their prefix there so the API stays the
		// front door's mux.
		mux := http.NewServeMux()
		mux.Handle("/debug/pprof/", http.DefaultServeMux)
		mux.Handle("/", handler)
		handler = mux
	}
	srv := newServer(handler, idleTimeout)
	n := fd.Shards()
	fmt.Fprintf(stdout, "efserver: front door over %d shard(s), %d GPUs total, listening on %s (front-door metrics on /metrics, per-shard planes on /v1/shards/{k}/)\n",
		n, n*shardTopology.Servers*shardTopology.GPUsPerServer, l.Addr())
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()

	select {
	case err := <-serveErr:
		// Listener failed before any signal.
		stop()
		<-tickerDone
		return errors.Join(err, fd.Shutdown())
	case <-ctx.Done():
	}
	log.Print("efserver: shutting down")
	// Drain the batchers and flush every shard journal first: from here on
	// mutations are rejected with 503 (the write would not be durable), while
	// reads keep draining below.
	if err := fd.Shutdown(); err != nil {
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

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}
