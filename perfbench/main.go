// Command perfbench is the repository benchmark. It drives the product
// over one named workload from a single process, checks every answer,
// and prints the workload's metrics as one JSON object on the last line
// of standard output:
//
//	perfbench -workload invoke-direct -seed 1 -seconds 20 -trace 0
//
// With -trace 0 it prints the end-to-end metrics, measured with no
// recording in the path. With -trace 1 it runs the workload twice, half
// the time each: untraced, then with span recorders wrapped around every
// layer's public calls, and prints the per-layer metrics; the spans are
// written to <out>/spans-<workload>.jsonl. METRICS.md lists every metric
// with its unit, layer and workload. run.sh builds this package from
// source and runs it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects a run's metrics by name; set panics on a name the
// catalog does not list, which only a bug can cause.
type metricSet map[string]metric

func (m metricSet) set(name string, v float64) {
	u, ok := units[name]
	if !ok {
		panic("perfbench: metric not in catalog: " + name)
	}
	m[name] = metric{Value: v, Unit: u}
}

// endToEnd and perLayer are the metric catalog: every name a run
// prints, with its unit. BENCHMARK.json lists the same names.
var endToEnd = [][2]string{
	{"setup_s", "s"},
	{"quiet_p50_ms", "ms"},
	{"quiet_p99_ms", "ms"},
	{"quiet_high_p99_ms", "ms"},
	{"goodput_rps", "1/s"},
	{"ok_frac", "frac"},
	{"cpu_us_per_op", "us"},
	{"max_rss_mb", "MB"},
}

var perLayer = [][2]string{
	{"latency.p50_ms", "ms"},
	{"latency.p99_ms", "ms"},
	{"latency.high_p99_ms", "ms"},
	{"wire.client_self_us.p50", "us"},
	{"wire.client_self_us.p99", "us"},
	{"wire.req_bytes_per_op", "B"},
	{"wire.resp_bytes_per_op", "B"},
	{"wire.client_retries", "count"},
	{"wire.client_failovers", "count"},
	{"wire.budget_denials", "count"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.bytes_per_op", "B"},
	{"runtime.gc_cycles", "count"},
	{"faas.endpoint_self_us.p50", "us"},
	{"faas.endpoint_self_us.p99", "us"},
	{"faas.exec_us.p50", "us"},
	{"faas.exec_us.p99", "us"},
	{"faas.cold_starts", "count"},
	{"faas.warm_ratio", "frac"},
	{"faas.shed_frac", "frac"},
	{"faas.shed.low", "count"},
	{"faas.shed.normal", "count"},
	{"faas.shed.high", "count"},
	{"faas.queue_depth.max", "count"},
	{"faas.slot_limit.mean", "count"},
	{"federation.policy_us.p50", "us"},
	{"federation.policy_us.p99", "us"},
	{"federation.router_self_us.p50", "us"},
	{"federation.router_self_us.p99", "us"},
	{"federation.routes", "count"},
	{"federation.route_errors", "count"},
	{"federation.affinity", "frac"},
	{"federation.balance", "ratio"},
	{"scenario.generate_ms", "ms"},
	{"scenario.validate_ms", "ms"},
	{"scenario.run_s", "s"},
	{"core.completed", "count"},
	{"core.lost", "count"},
	{"core.retries", "count"},
	{"core.suppressed", "count"},
	{"core.shed", "count"},
	{"core.dispatches", "count"},
	{"core.failures", "count"},
	{"loadgen.late_p50_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.max_inflight", "count"},
	{"trace.overhead_frac", "frac"},
	{"trace.unnested_spans", "count"},
}

var units = func() map[string]string {
	u := make(map[string]string)
	for _, m := range append(append([][2]string(nil), endToEnd...), perLayer...) {
		u[m[0]] = m[1]
	}
	return u
}()

// result is the last line a run prints.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload: invoke-direct, invoke-routed, flash-crowd or sim-stress")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	traced := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	out := flag.String("out", ".", "directory the traced run writes its spans to")
	flag.Parse()

	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	horizon := time.Duration(*seconds * float64(time.Second))
	stamp := stampFor(*workload, *seed, *seconds, *traced)

	var res *result
	var err error
	switch {
	case *workload == "sim-stress":
		res, err = runSim(*seed, horizon, *traced == 1)
	case liveSpecs[*workload] != nil:
		res, err = runLive(liveSpecs[*workload], *seed, horizon, *traced == 1, stamp, *out)
	default:
		err = fmt.Errorf("unknown workload %q", *workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}

	names := endToEnd
	if *traced == 1 {
		names = perLayer
	}
	for _, n := range names {
		if _, ok := res.Metrics[n[0]]; !ok {
			res.Metrics.set(n[0], 0) // the layer does not take part in this workload
		}
	}
	fmt.Printf("%s\n", stamp)
	printTable(res.Metrics)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", line)
}

// printTable prints the metrics one per line, for people.
func printTable(m metricSet) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("# %-32s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
}

// liveSetups is how many times an untraced live run sets its system up;
// set-up time is the median, and the last system is measured.
const liveSetups = 5

// runLive runs a live workload. Untraced, it sets the system up
// liveSetups times and measures one horizon. Traced, it
// measures half a horizon untraced and half traced, each on a fresh
// system, and reports the per-layer metrics.
func runLive(w *liveSpec, seed int64, horizon time.Duration, traced bool, stamp []byte, out string) (*result, error) {
	m := metricSet{}
	if !traced {
		ph, err := runLivePhase(w, seed, horizon, liveSetups, false)
		if err != nil {
			return nil, err
		}
		ph.endToEnd(m)
		f := ph.failures()
		return &result{Correct: f == 0, Attempted: len(ph.sched), Failed: f, Metrics: m}, nil
	}
	plain, err := runLivePhase(w, seed, horizon/2, 1, false)
	if err != nil {
		return nil, err
	}
	rec, err := runLivePhase(w, seed, horizon/2, 1, true)
	if err != nil {
		return nil, err
	}
	plain.loadgenLayer(m)
	unnested, badRefusals := rec.layers(m)
	base := float64(plain.use.cpu) / float64(len(plain.sched))
	m.set("trace.overhead_frac", float64(rec.use.cpu)/float64(len(rec.sched))/base-1)
	if err := writeSpans(filepath.Join(out, "spans-"+w.name+".jsonl"), stamp, rec.spans, rec.routed); err != nil {
		return nil, err
	}
	f := plain.failures() + rec.failures() + badRefusals
	return &result{
		Correct:   f == 0 && unnested == 0,
		Attempted: len(plain.sched) + len(rec.sched),
		Failed:    f,
		Metrics:   m,
	}, nil
}

// runSim runs sim-stress. The simulator records its own event trace on
// every run, so the traced run adds no recording of the benchmark's and
// its overhead is 0 by construction.
func runSim(seed int64, horizon time.Duration, traced bool) (*result, error) {
	ph, err := runSimPhase(seed, horizon)
	if err != nil {
		return nil, err
	}
	m := metricSet{}
	if traced {
		ph.layers(m)
		ph.runtimeLayer(m)
		m.set("trace.overhead_frac", 0)
	} else {
		ph.endToEnd(m)
	}
	f := ph.failures()
	return &result{Correct: f == 0, Attempted: int(ph.attempted), Failed: f, Metrics: m}, nil
}

// stampFor identifies what produced a result: the commit (when the
// source was built inside a git checkout), the toolchain, the host's
// parallelism, the workload's configuration and the seed.
func stampFor(workload string, seed int64, seconds float64, traced int) []byte {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	var config map[string]any
	if w := liveSpecs[workload]; w != nil {
		config = w.config
	} else if workload == "sim-stress" {
		config = map[string]any{"nodes": simNodes, "backend": "sim", "workers": "GOMAXPROCS", "setups": simSetups}
	}
	b, _ := json.Marshal(map[string]any{"stamp": map[string]any{ // a map of plain values always marshals
		"commit": commit, "go": runtime.Version(), "num_cpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"goos": runtime.GOOS, "goarch": runtime.GOARCH, "workload": workload, "config": config,
		"seed": seed, "seconds": seconds, "trace": traced,
	}})
	return b
}
