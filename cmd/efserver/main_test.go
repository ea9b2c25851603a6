package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/elasticflow/elasticflow/internal/serverless"
)

// TestMain doubles as the child entry point of the crash-restart e2e: when
// the env marker is set, the test binary runs the real server instead of the
// test suite — the same re-exec idiom exec tests use.
func TestMain(m *testing.M) {
	if os.Getenv("EFSERVER_E2E_CHILD") == "1" {
		if err := run(strings.Fields(os.Getenv("EFSERVER_E2E_ARGS")), os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

var listenRe = regexp.MustCompile(`listening on (\S+)`)

// startChild re-execs the test binary as an efserver with the given args and
// returns the command plus the address it bound.
func startChild(t *testing.T, args string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "EFSERVER_E2E_CHILD=1", "EFSERVER_E2E_ARGS="+args)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if m := listenRe.FindStringSubmatch(sc.Text()); m != nil {
			// Keep draining stdout so the child never blocks on a full pipe.
			go func() {
				for sc.Scan() {
				}
			}()
			return cmd, m[1]
		}
	}
	_ = cmd.Process.Kill()
	t.Fatalf("child exited without announcing a listen address")
	return nil, ""
}

func getJobs(t *testing.T, addr string) []serverless.JobStatus {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var jobs []serverless.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&jobs); err != nil {
		t.Fatal(err)
	}
	return jobs
}

// TestCrashRestartEndToEnd is the full durability drill over the real
// binary: a server journaling into -state-dir is SIGKILLed right after it
// acknowledges an admission, a second incarnation recovers from the same
// directory, and the job must complete within its original deadline — an
// acknowledged admission survives the kill with its guarantee intact.
func TestCrashRestartEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("crash-restart e2e spawns real processes")
	}
	dir := t.TempDir()
	base := "-addr 127.0.0.1:0 -servers 2 -gpus-per-server 4 -timescale 50 -snapshot-every 64 -state-dir " + dir

	child1, addr := startChild(t, base)
	defer func() { _ = child1.Process.Kill() }()

	body, _ := json.Marshal(serverless.SubmitRequest{
		Model: "resnet50", GlobalBatch: 64, Iterations: 2000, DeadlineSeconds: 600,
	})
	resp, err := http.Post("http://"+addr+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var admitted serverless.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&admitted); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: status %d, job %+v", resp.StatusCode, admitted)
	}

	// The crash: no flush, no drain — the journal alone carries the state.
	if err := child1.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	err = child1.Wait()
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("child exited cleanly (%v), expected SIGKILL", err)
	}
	if ws, ok := ee.Sys().(syscall.WaitStatus); !ok || !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
		t.Fatalf("child died of %v, expected SIGKILL", ee)
	}

	// Restart against the same state directory: the journal alone must
	// reconstruct the admission.
	child2, addr2 := startChild(t, base)
	defer func() { _ = child2.Process.Kill() }()

	jobs := getJobs(t, addr2)
	if len(jobs) != 1 || jobs[0].ID != admitted.ID {
		t.Fatalf("recovered jobs = %+v, want exactly %s", jobs, admitted.ID)
	}
	if jobs[0].State == "dropped" {
		t.Fatal("recovery revoked the admitted job")
	}
	if jobs[0].Deadline != admitted.Deadline {
		t.Fatalf("deadline changed across restart: %v → %v", admitted.Deadline, jobs[0].Deadline)
	}

	// The admitted deadline must still be met. Platform time froze during
	// the downtime, so the full budget remains; poll until completion.
	deadline := time.Now().Add(30 * time.Second)
	for {
		jobs = getJobs(t, addr2)
		if len(jobs) == 1 && jobs[0].State == "completed" {
			if jobs[0].Completion > jobs[0].Deadline {
				t.Fatalf("job completed at t=%.0fs, after its deadline t=%.0fs", jobs[0].Completion, jobs[0].Deadline)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never completed after restart: %+v", jobs)
		}
		time.Sleep(200 * time.Millisecond)
	}

	// Graceful shutdown of the second incarnation flushes cleanly.
	if err := child2.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := child2.Wait(); err != nil {
		t.Fatalf("graceful shutdown failed: %v", err)
	}
}

// TestPprofAndTraceEndpoints: -pprof gates the profiling handlers (absent
// by default — profiling on a control plane is an operator opt-in), while
// each shard's /debug/trace always serves its span trail as Chrome
// trace-event JSON.
func TestPprofAndTraceEndpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("endpoint e2e spawns real processes")
	}
	stopChild := func(c *exec.Cmd) {
		_ = c.Process.Signal(syscall.SIGTERM)
		_ = c.Wait()
	}

	child, addr := startChild(t, "-addr 127.0.0.1:0 -servers 2 -gpus-per-server 4 -pprof")
	defer stopChild(child)

	resp, err := http.Get("http://" + addr + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("-pprof: /debug/pprof/cmdline status = %d, want 200", resp.StatusCode)
	}

	// A submission populates the span trail; /debug/trace serves it in
	// trace-event form with the job's lifecycle root present.
	body, _ := json.Marshal(serverless.SubmitRequest{
		Model: "resnet50", GlobalBatch: 64, Iterations: 2000, DeadlineSeconds: 600,
	})
	resp, err = http.Post("http://"+addr+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var admitted serverless.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&admitted); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get("http://" + addr + "/v1/shards/0/debug/trace?job=" + admitted.ID)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&trace); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	found := false
	for _, ev := range trace.TraceEvents {
		if ev.Name == "job.lifecycle" {
			found = true
		}
	}
	if !found {
		t.Errorf("/debug/trace has no job.lifecycle event for %s: %+v", admitted.ID, trace.TraceEvents)
	}
	stopChild(child)

	// Without the flag the profiling surface does not exist.
	child2, addr2 := startChild(t, "-addr 127.0.0.1:0 -servers 2 -gpus-per-server 4")
	defer stopChild(child2)
	resp, err = http.Get("http://" + addr2 + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("pprof served without -pprof")
	}
}

// TestIdleConnectionClosed: a keep-alive connection that sends nothing after
// its request is closed by the server once the idle timeout passes, instead
// of being held open forever.
func TestIdleConnectionClosed(t *testing.T) {
	const idle = 200 * time.Millisecond
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "ok")
	}), idle)
	go func() { _ = srv.Serve(l) }()
	defer srv.Close()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, "GET / HTTP/1.1\r\nHost: efserver\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Close {
		t.Fatal("the server closed the connection with its response: nothing left to time out")
	}
	idleSince := time.Now()
	if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := br.ReadByte(); !errors.Is(err, io.EOF) {
		t.Fatalf("idle connection: read returned %v, want EOF from the server closing it", err)
	}
	if waited := time.Since(idleSince); waited < idle/2 {
		t.Errorf("connection closed after %v idle, before the %v timeout", waited, idle)
	}
	if idleTimeout < time.Minute || idleTimeout > 10*time.Minute {
		t.Errorf("idleTimeout = %v, want a few minutes", idleTimeout)
	}
}
