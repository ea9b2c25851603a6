package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"time"

	"github.com/elasticflow/elasticflow/internal/serverless"
)

const (
	// setupReps is how many times a run sets the server up; setup_s is the
	// median, and the last set-up serves the run.
	setupReps = 7
	// sloLimit is the latency limit the tail is held against.
	sloLimit = 50 * time.Millisecond
	// latenessLimitMs marks a run invalid whose generator, not the server,
	// was the slow part. The server's answers are still correct, and lateness
	// only ever makes the reported latencies worse, so the run is flagged in
	// its run file and by -compare rather than failed.
	latenessLimitMs = 5.0
)

// phases splits -seconds: a paced open loop whose first part is warm-up and
// whose rest is scored as three equal segments (0.1 + 3 × 0.15 of the run),
// then a closed-loop saturation phase (0.35). What is left of -seconds covers
// the end-of-run reads.
type phases struct {
	warm, segment, saturation time.Duration
}

func planPhases(seconds float64) phases {
	s := time.Duration(seconds * float64(time.Second))
	return phases{warm: s / 10, segment: s * 3 / 20, saturation: s * 7 / 20}
}

func (p phases) paced() time.Duration { return p.warm + 3*p.segment }

// runLive is the live_* workloads: loopback HTTP into a front door over
// durable shards. Untraced, the server is the efserver binary as a child
// process and the run yields the end-to-end metrics; traced, the harness
// hosts the same front door itself and the run yields the per-layer metrics.
func runLive(cfg runConfig, w liveWorkload) (*runResult, error) {
	r := newRunResult(cfg.traced)
	ph := planPhases(cfg.seconds)

	// The traced run serves from inside the harness, but builds the binary
	// all the same: what the build costs is one of its metrics.
	bin, buildTook, err := buildServer(cfg.buildDir)
	if err != nil {
		return nil, err
	}
	if cfg.traced {
		r.metrics.set("loadgen.build_s", buildTook.Seconds())
	} else {
		r.info["loadgen.build_s"] = buildTook.Seconds()
	}
	start := func(dir string) (server, error) {
		if cfg.traced {
			return startHost(dir, w.tenants)
		}
		c, err := startChild(bin, dir, w.tenants)
		if err != nil {
			return nil, err
		}
		cfg.atExit(func() {
			if err := c.crash(); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: reaping efserver: %v\n", err)
			}
		})
		return c, nil
	}

	// Set-up: inputs from the seed, a server on an empty state directory,
	// its first 200.
	inputCount := int(w.ratePerSec*ph.paced().Seconds()*1.25) + int(800*ph.saturation.Seconds())
	var setups []float64
	var in *inputs
	var srv server
	var stateDir string
	for rep := 0; rep < setupReps; rep++ {
		began := time.Now()
		var err error
		if in, err = buildInputs(w, cfg.seed, inputCount); err != nil {
			return nil, err
		}
		if stateDir, err = cfg.tempDir("state"); err != nil {
			return nil, err
		}
		if srv, err = start(stateDir); err != nil {
			return nil, err
		}
		if _, err = waitReady(srv.url()); err != nil {
			return nil, errors.Join(err, srv.crash())
		}
		setups = append(setups, time.Since(began).Seconds())
		if rep < setupReps-1 {
			if err := srv.stop(); err != nil {
				return nil, err
			}
		}
	}

	g := newLoadgen(srv.url(), in, w.mixed)
	defer g.close()
	var cpu0 time.Duration
	if c, ok := srv.(*child); ok {
		var err error
		if cpu0, err = procCPU(c.pid()); err != nil {
			return nil, err
		}
	}

	t0 := time.Now()
	endA := t0.Add(ph.paced())
	nA := in.phaseA(ph.paced())
	g.paced(t0, endA, nA)
	var afterA scrape
	if cfg.traced {
		var err error
		if afterA, err = g.scrape(); err != nil {
			return nil, err
		}
	}
	satStart := time.Now()
	g.saturate(nA, satStart.Add(ph.saturation))
	satWall := time.Since(satStart)

	listBody, listTook, err := g.get("/v1/jobs")
	if err != nil {
		return nil, err
	}
	var before []serverless.JobStatus
	if err := json.Unmarshal(listBody, &before); err != nil {
		return nil, fmt.Errorf("final job list: %w", err)
	}
	var atEnd scrape
	if cfg.traced {
		if atEnd, err = g.scrape(); err != nil {
			return nil, err
		}
	}

	sum := g.summarise(t0, ph)
	r.attempted, r.failed = sum.attempted, sum.failed
	for _, p := range g.problems {
		r.fail("request failed: %s", p)
	}
	r.check(sum.failed == 0, "%d of %d requests failed", sum.failed, sum.attempted)
	if sum.latenessP99 > latenessLimitMs {
		r.invalid("generator ran late: lateness p99 %.2f ms > %.0f ms, so the run measured the generator", sum.latenessP99, latenessLimitMs)
	}
	r.check(len(sum.segmentP50) == 3, "Phase A held samples in only %d of its 3 segments", len(sum.segmentP50))

	if c, ok := srv.(*child); ok {
		cpu1, err := procCPU(c.pid())
		if err != nil {
			return nil, err
		}
		rss, err := peakRSSMB(c.pid())
		if err != nil {
			return nil, err
		}
		e := r.metrics
		e.set("setup_s", median(setups))
		e.set("submit_p50_ms", median(sum.saturatedMs))
		e.set("submit_rps", float64(sum.saturated)/satWall.Seconds())
		e.set("server_cpu_ms_per_req", ms(cpu1-cpu0)/float64(sum.attempted))
		e.set("server_peak_rss_mb", rss)
		e.set("admitted_share", ratio(float64(sum.admittedA), float64(sum.admittedA+sum.droppedA)))
		e.set("dsr", liveDSR(before, sum.phaseAJobs))
		r.info["loadgen.lateness_ms_p99"] = sum.latenessP99
		r.info["loadgen.paced_p50_ms"] = median(sum.segmentP50)
		r.info["loadgen.samples"] = float64(len(sum.submitMs))
		r.info["loadgen.submit_p99_ms"] = quantile(sum.submitMs, 0.99)
	}

	var handlers map[string]handlerSpan
	if h, ok := srv.(*host); ok {
		handlers = h.handlerSpans()
	}
	stateBytes, err := dirBytes(stateDir)
	if err != nil {
		return nil, err
	}
	srv, after, recoverS, err := crashAndRecover(srv, func() (server, error) { return start(stateDir) })
	if err != nil {
		return nil, err
	}
	for _, why := range compareLists(before, after) {
		r.fail("after crash and restart: %s", why)
	}
	r.info["serverless.recover_s"] = recoverS

	var recovered scrape
	if cfg.traced {
		g2 := newLoadgen(srv.url(), in, false)
		recovered, err = g2.scrape()
		g2.close()
		if err != nil {
			return nil, errors.Join(err, srv.crash())
		}
	}
	if err := srv.stop(); err != nil {
		return nil, err
	}
	if cfg.traced {
		if err := liveDirect(cfg, r, in); err != nil {
			return nil, err
		}
		livePerLayer(cfg, r, g, sum, handlers, afterA, atEnd, recovered, liveFacts{
			listMs:     ms(listTook),
			retained:   len(before),
			stateBytes: stateBytes,
			recoverS:   recoverS,
		})
	}
	return r, nil
}

// crashAndRecover ends srv without any graceful step, restarts it on the same
// state directory and returns the new server, the first job list it serves
// and the seconds from the crash to that answer.
func crashAndRecover(srv server, restart func() (server, error)) (server, []serverless.JobStatus, float64, error) {
	if err := srv.crash(); err != nil {
		return nil, nil, 0, err
	}
	crashed := time.Now()
	srv, err := restart()
	if err != nil {
		return nil, nil, 0, err
	}
	body, err := waitReady(srv.url())
	took := time.Since(crashed).Seconds()
	var list []serverless.JobStatus
	if err == nil {
		if err = json.Unmarshal(body, &list); err != nil {
			err = fmt.Errorf("recovered job list: %w", err)
		}
	}
	if err != nil {
		return nil, nil, 0, errors.Join(err, srv.crash())
	}
	return srv, list, took, nil
}

// liveDSR is the deadline satisfactory ratio as the live platform's own job
// list shows it: of Phase A's submissions whose deadline has passed by the
// time of the list, the share that completed in time. Dropped and cancelled
// submissions count against it, as in the paper's definition.
func liveDSR(list []serverless.JobStatus, phaseA map[string]bool) float64 {
	now := 0.0
	for _, st := range list {
		if st.SubmitTime > now {
			now = st.SubmitTime
		}
	}
	due, met := 0, 0
	for _, st := range list {
		if !phaseA[st.ID] || st.Deadline > now {
			continue
		}
		due++
		if st.State == "completed" && st.Completion <= st.Deadline {
			met++
		}
	}
	return ratio(float64(met), float64(due))
}

// compareLists checks the recovered job list against the one read before the
// crash. The platform clock resumes on restart, so by the first read running
// jobs have moved on; every field that time cannot change must be equal, jobs
// that had ended must be equal in every field, and progress may not run
// backwards.
func compareLists(before, after []serverless.JobStatus) []string {
	var out []string
	if len(before) != len(after) {
		return []string{fmt.Sprintf("job list has %d jobs, had %d", len(after), len(before))}
	}
	byID := make(map[string]serverless.JobStatus, len(after))
	for _, st := range after {
		byID[st.ID] = st
	}
	for _, b := range before {
		a, ok := byID[b.ID]
		if !ok {
			out = append(out, "job "+b.ID+" is gone")
			continue
		}
		ended := b.State == "completed" || b.State == "dropped"
		fixed := func(st serverless.JobStatus) serverless.JobStatus {
			if !ended {
				st.State, st.GPUs, st.LocalBatch, st.DoneIters = "", 0, 0, 0
				st.Completion, st.Placement, st.DeadlineAtRisk, st.EarliestFeasibleSec = 0, "", false, 0
			}
			// A cancelled job keeps its last allocation in the list, and
			// with it an estimate that moves with the clock.
			st.EstimatedDone = 0
			return st
		}
		if fixed(a) != fixed(b) {
			out = append(out, fmt.Sprintf("job %s differs: %+v, was %+v", b.ID, a, b))
		} else if a.DoneIters < b.DoneIters {
			out = append(out, fmt.Sprintf("job %s lost progress: %v iterations, had %v", b.ID, a.DoneIters, b.DoneIters))
		}
		if len(out) >= 5 {
			break
		}
	}
	return out
}

// summary is what the load generator's samples say about a run.
type summary struct {
	attempted, failed int
	admittedA         int // 201s in Phase A
	droppedA          int // 409s in Phase A
	saturated         int // submissions completed in Phase B
	saturatedMs       []float64
	phaseAJobs        map[string]bool
	// submitMs are the measured Phase-A submission latencies (due time to
	// last response byte), segmentP50 their median per scored segment.
	submitMs    []float64
	segmentP50  []float64
	sendWaitUs  []float64
	statusMs    []float64
	listMs      []float64
	scored      int // measured submissions, failed ones included
	sloMisses   int
	latenessP99 float64
	measured    []sample // the measured Phase-A submissions
}

func (g *loadgen) summarise(t0 time.Time, ph phases) summary {
	s := summary{phaseAJobs: make(map[string]bool), latenessP99: quantile(g.latenessMs, 0.99)}
	segments := make([][]float64, 3)
	measureFrom := t0.Add(ph.warm)
	for _, x := range g.samples {
		s.attempted++
		if x.failed {
			s.failed++
		}
		if x.phase == 'B' {
			if !x.failed {
				s.saturated++
				s.saturatedMs = append(s.saturatedMs, ms(x.done.Sub(x.due)))
			}
			continue
		}
		lat := ms(x.done.Sub(x.due))
		switch x.kind {
		case opSubmit:
			if x.jobID != "" {
				s.phaseAJobs[x.jobID] = true
			}
			switch x.code {
			case http.StatusCreated:
				s.admittedA++
			case http.StatusConflict:
				s.droppedA++
			}
			if x.due.Before(measureFrom) {
				continue
			}
			s.scored++
			if x.failed || x.done.Sub(x.due) > sloLimit {
				s.sloMisses++
			}
			if x.failed {
				continue
			}
			s.submitMs = append(s.submitMs, lat)
			s.sendWaitUs = append(s.sendWaitUs, us(x.sent.Sub(x.due)))
			s.measured = append(s.measured, x)
			if k := int(x.due.Sub(measureFrom) / ph.segment); k < 3 {
				segments[k] = append(segments[k], lat)
			}
		case opStatus:
			if !x.failed {
				s.statusMs = append(s.statusMs, lat)
			}
		case opList:
			if !x.failed {
				s.listMs = append(s.listMs, lat)
			}
		}
	}
	for _, seg := range segments {
		if len(seg) > 0 {
			s.segmentP50 = append(s.segmentP50, median(seg))
		}
	}
	return s
}

// liveFacts are the end-of-run readings livePerLayer folds in.
type liveFacts struct {
	listMs     float64
	retained   int
	stateBytes int64
	recoverS   float64
}
