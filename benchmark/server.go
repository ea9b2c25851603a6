package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"

	"github.com/elasticflow/elasticflow/internal/frontdoor"
)

// buildServer compiles cmd/efserver from the checkout the harness runs in.
func buildServer(buildDir string) (bin string, took time.Duration, err error) {
	bin = filepath.Join(buildDir, "efserver")
	start := time.Now()
	out, err := exec.Command("go", "build", "-o", bin, "./cmd/efserver").CombinedOutput()
	if err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/efserver: %v\n%s", err, out)
	}
	return bin, time.Since(start), nil
}

// server is the system under test as the load generator sees it.
type server interface {
	// url is the base URL, without a trailing slash.
	url() string
	// crash ends the server without any graceful step — no journal flush,
	// no final snapshot — and leaves its state directory behind.
	crash() error
	// stop shuts the server down gracefully.
	stop() error
}

// child is efserver running as a child process.
type child struct {
	cmd  *exec.Cmd
	base string
	done chan struct{} // closed once Wait has returned
}

var listenRE = regexp.MustCompile(`listening on (\S+)`)

// startChild launches efserver on a free loopback port (the kernel picks; the
// server announces it on stdout) and returns once the address is known.
func startChild(bin, stateDir, tenants string) (*child, error) {
	args := []string{
		"-addr", "127.0.0.1:0",
		"-shards", strconv.Itoa(shards),
		"-servers", strconv.Itoa(shardTopology.Servers),
		"-gpus-per-server", strconv.Itoa(shardTopology.GPUsPerServer),
		"-timescale", strconv.Itoa(timescale),
		"-state-dir", stateDir,
		"-snapshot-every", strconv.Itoa(snapshotEvery),
	}
	if tenants != "" {
		args = append(args, "-tenants", tenants)
	}
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(runtime.NumCPU()))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(c.done)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if m := listenRE.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case addr <- m[1]:
				default:
				}
			}
		}
		// Wait reaps the process; its error only repeats the exit status
		// the caller already chose by signalling.
		_ = cmd.Wait()
	}()
	select {
	case a := <-addr:
		c.base = "http://" + a
		return c, nil
	case <-c.done:
		return nil, errors.New("efserver exited before announcing its address")
	case <-time.After(20 * time.Second):
		return nil, errors.Join(errors.New("efserver did not announce its address within 20s"), c.crash())
	}
}

func (c *child) url() string { return c.base }
func (c *child) pid() int    { return c.cmd.Process.Pid }

func (c *child) crash() error {
	err := c.cmd.Process.Kill()
	<-c.done
	if errors.Is(err, os.ErrProcessDone) {
		return nil
	}
	return err
}

// stop sends SIGTERM and escalates to SIGKILL after five seconds; either way
// it returns only once the process has been reaped.
func (c *child) stop() error {
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		if errors.Is(err, os.ErrProcessDone) {
			<-c.done
			return nil
		}
		return c.crash()
	}
	select {
	case <-c.done:
		return nil
	case <-time.After(5 * time.Second):
		if err := c.crash(); err != nil {
			return err
		}
		return errors.New("efserver ignored SIGTERM for 5s and was killed")
	}
}

// handlerSpan is one request as the hosted front door's handler saw it.
type handlerSpan struct {
	start, end time.Time
}

// host runs the front door inside the harness, the way efserver's flags would
// build it, so the traced run can time the handler from outside: a middleware
// records one span per request under the request ID the load generator sent.
type host struct {
	fd       *frontdoor.FrontDoor
	srv      *http.Server
	base     string
	stopTick context.CancelFunc
	bg       sync.WaitGroup

	mu       sync.Mutex
	handlers map[string]handlerSpan
}

const requestIDHeader = "X-Request-Id"

func startHost(stateDir, tenants string) (*host, error) {
	tc, err := frontdoor.ParseTenants(tenants)
	if err != nil {
		return nil, err
	}
	fd, err := frontdoor.New(frontdoor.Options{
		Shards:        shards,
		ShardTopology: shardTopology,
		Tenants:       tc,
		MaxBatch:      64,
		TimeScale:     timescale,
		StateDir:      stateDir,
		SnapshotEvery: snapshotEvery,
	})
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, fd.Shutdown())
	}
	h := &host{fd: fd, base: "http://" + l.Addr().String(), handlers: make(map[string]handlerSpan)}
	inner := frontdoor.Handler(fd)
	h.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(requestIDHeader)
		start := time.Now()
		inner.ServeHTTP(w, r)
		end := time.Now()
		if id != "" {
			h.mu.Lock()
			h.handlers[id] = handlerSpan{start, end}
			h.mu.Unlock()
		}
	})}
	ctx, cancel := context.WithCancel(context.Background())
	h.stopTick = cancel
	h.bg.Add(2)
	go func() {
		defer h.bg.Done()
		// Serve returns ErrServerClosed on the stop paths; any other end
		// shows up as transport errors in the load generator.
		_ = h.srv.Serve(l)
	}()
	go func() {
		defer h.bg.Done()
		t := time.NewTicker(time.Second) // efserver's scheduling epoch
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				fd.Tick()
			}
		}
	}()
	return h, nil
}

func (h *host) url() string { return h.base }

// handlerSpans returns the spans recorded so far.
func (h *host) handlerSpans() map[string]handlerSpan {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[string]handlerSpan, len(h.handlers))
	for k, v := range h.handlers {
		out[k] = v
	}
	return out
}

// halt stops the listener and the ticker, after which nothing touches the
// front door any more.
func (h *host) halt() error {
	h.stopTick()
	err := h.srv.Close()
	h.bg.Wait()
	return err
}

// crash abandons the front door where it stands: journals are left exactly
// as the last acknowledged mutation wrote them, which is what a SIGKILL
// leaves. The shards' file handles stay open until the harness exits.
func (h *host) crash() error { return h.halt() }

func (h *host) stop() error {
	err := h.halt()
	if serr := h.fd.Shutdown(); err == nil {
		err = serr
	}
	return err
}

// waitReady polls GET /v1/jobs until the server answers 200 and returns that
// first response body — after a restart, the recovered job list before any
// tick has moved it.
func waitReady(base string) ([]byte, error) {
	client := &http.Client{Timeout: 2 * time.Second}
	deadline := time.Now().Add(20 * time.Second)
	var last error
	for time.Now().Before(deadline) {
		resp, err := client.Get(base + "/v1/jobs")
		if err == nil {
			body, rerr := io.ReadAll(resp.Body)
			_ = resp.Body.Close() // body already read in full
			if rerr == nil && resp.StatusCode == http.StatusOK {
				client.CloseIdleConnections()
				return body, nil
			}
			err = fmt.Errorf("status %d: %v", resp.StatusCode, rerr)
		}
		last = err
		time.Sleep(time.Millisecond)
	}
	return nil, fmt.Errorf("server at %s not ready after 20s: %v", base, last)
}
