package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"continuum/internal/scenario"
	"continuum/internal/trace"
)

// simNodes is sim-stress's fleet size.
const simNodes = 1000

// simSetups is how many times a sim-stress run generates and validates
// its scenario; set-up time is the median. Each set-up starts after a
// collection, as a fresh process would, so one set-up's garbage does not
// land on the next; a set-up takes about a millisecond, so many are
// cheap.
const simSetups = 31

// simPhase is one measured window of sim-stress: repeated simulator
// runs of one generated scenario.
type simPhase struct {
	generate, validate []float64 // seconds per set-up step
	setup              []float64 // seconds per whole set-up
	runs               []float64 // wall seconds per run
	completed, lost    int64     // summed over runs
	attempted          int64
	mismatches         int // runs whose report differs from the first
	use                usage
	last               *scenario.Report
	tracer             *trace.Tracer
}

// runSimPhase generates and validates the stress scenario simSetups
// times, then runs it on the simulator backend with GOMAXPROCS workers,
// back to back, until horizon has passed (at least twice, so every run
// has a sibling to be compared with).
func runSimPhase(seed int64, horizon time.Duration) (*simPhase, error) {
	ph := &simPhase{}
	var s *scenario.Scenario
	for i := 0; i < simSetups; i++ {
		runtime.GC()
		t0 := time.Now()
		s = scenario.GenerateStress(scenario.StressSpec{Nodes: simNodes, Seed: uint64(seed)})
		t1 := time.Now()
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("sim-stress: validate: %w", err)
		}
		ph.generate = append(ph.generate, t1.Sub(t0).Seconds())
		ph.validate = append(ph.validate, time.Since(t1).Seconds())
		ph.setup = append(ph.setup, time.Since(t0).Seconds())
	}

	var first []byte
	u0 := readUsage()
	start := time.Now()
	for len(ph.runs) < 2 || time.Since(start) < horizon {
		t0 := time.Now()
		rep, tr, err := s.RunTracedParallel(runtime.GOMAXPROCS(0))
		if err != nil {
			return nil, fmt.Errorf("sim-stress: run: %w", err)
		}
		ph.runs = append(ph.runs, time.Since(t0).Seconds())
		blob, err := json.Marshal(rep)
		if err != nil {
			return nil, fmt.Errorf("sim-stress: marshal report: %w", err)
		}
		if first == nil {
			first = blob
		} else if string(blob) != string(first) {
			ph.mismatches++
		}
		ph.completed += rep.Completed
		ph.lost += rep.Lost
		ph.attempted += rep.Completed + rep.Lost + rep.Shed
		ph.last, ph.tracer = rep, tr
	}
	ph.use = readUsage().sub(u0)
	return ph, nil
}

// failures counts lost tasks and runs whose report differs from the
// first run's: the same seed must reproduce the same report.
func (ph *simPhase) failures() int { return int(ph.lost) + ph.mismatches }

// endToEnd computes the end-to-end metrics. A simulator user waits for a
// whole run, so a run is the unit of latency: the quiet-stretch
// percentiles pool the fastest tenth of the runs (at least one), which
// gives their percentiles. All simulated work is one class, so the high
// p99 equals the p99. Goodput is one run's completed tasks over the
// quiet p50. CPU is per completed task over every run.
func (ph *simPhase) endToEnd(m metricSet) {
	runsMS := ph.runsMS()
	fmt.Printf("# simulator runs: %d of %d tasks each\n", len(ph.runs), ph.last.Completed)
	quiet50 := quietQuantile(runsMS, 1, 0.5, 1)
	m.set("setup_s", median(ph.setup))
	m.set("quiet_p50_ms", quiet50)
	m.set("quiet_p99_ms", quietQuantile(runsMS, 1, 0.99, 1))
	m.set("quiet_high_p99_ms", quietQuantile(runsMS, 1, 0.99, 1))
	m.set("goodput_rps", float64(ph.last.Completed)/(quiet50/1e3))
	m.set("ok_frac", float64(ph.completed)/float64(ph.attempted))
	m.set("cpu_us_per_op", float64(ph.use.cpu)/float64(time.Microsecond)/float64(ph.completed))
	m.set("max_rss_mb", maxRSSMB())
}

// runsMS returns the run wall times in ms.
func (ph *simPhase) runsMS() []float64 {
	out := make([]float64, len(ph.runs))
	for i, r := range ph.runs {
		out[i] = r * 1e3
	}
	return out
}

// layers computes the simulator's per-layer metrics. Event counts come
// from the last run's tracer, which every run of one seed reproduces.
func (ph *simPhase) layers(m metricSet) {
	m.set("scenario.generate_ms", median(ph.generate)*1e3)
	m.set("scenario.validate_ms", median(ph.validate)*1e3)
	m.set("scenario.run_s", median(ph.runs))
	r := ph.last
	m.set("core.completed", float64(r.Completed))
	m.set("core.lost", float64(r.Lost))
	m.set("core.retries", float64(r.Retries))
	m.set("core.suppressed", float64(r.Suppressed))
	m.set("core.shed", float64(r.Shed))
	m.set("core.dispatches", float64(len(ph.tracer.Filter(trace.Dispatch))))
	m.set("core.failures", float64(len(ph.tracer.Filter(trace.Failure))))
}

// runtimeLayer reports the run-wide run-time percentiles (the median and
// the slowest run) and allocation figures per completed task.
func (ph *simPhase) runtimeLayer(m metricSet) {
	runs := sortedCopy(ph.runsMS())
	m.set("latency.p50_ms", percentile(runs, 0.5))
	m.set("latency.p99_ms", percentile(runs, 0.99))
	m.set("latency.high_p99_ms", percentile(runs, 0.99))
	m.set("runtime.allocs_per_op", float64(ph.use.mallocs)/float64(ph.completed))
	m.set("runtime.bytes_per_op", float64(ph.use.bytes)/float64(ph.completed))
	m.set("runtime.gc_cycles", float64(ph.use.gc))
}
