package main

// The -engine mode measures the discrete-event kernel's raw speed: an
// events/sec trajectory over queue population (1k → 1M pending events)
// for the calendar queue against the binary-heap reference, the
// steady-state allocation rate (the tentpole claim: zero), a
// sharded-parallel Group run proving serial/parallel event counts agree,
// and an end-to-end engine point (tasks/sec through placement, network,
// and execution on a generated stress scenario). The JSON report lands
// in BENCH_engine.json so the numbers ride along with the code; the
// -engine-gate flags make it the CI floor against kernel regressions.

import (
	"container/heap"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"continuum/internal/scenario"
	"continuum/internal/sim"
)

type engineKernelPoint struct {
	Pending int `json:"pending"`
	Events  int `json:"events"`
	// CalendarEvPerSec / HeapEvPerSec are schedule+fire cycles per second
	// on a self-perpetuating uniform workload holding the population at
	// Pending: calendar is the production queue, heap the kernel's own
	// pooled binary-heap fallback. BaselineEvPerSec is the pre-refactor
	// kernel (container/heap interface queue, one allocation per event) —
	// the implementation this PR replaced, reproduced here so the speedup
	// is measured against what the code actually did before.
	CalendarEvPerSec float64 `json:"calendar_ev_per_sec"`
	HeapEvPerSec     float64 `json:"heap_ev_per_sec"`
	BaselineEvPerSec float64 `json:"baseline_ev_per_sec"`
	// Speedup is calendar over baseline; SpeedupVsHeap is calendar over
	// the pooled heap fallback (isolates the calendar layout itself).
	Speedup       float64 `json:"speedup"`
	SpeedupVsHeap float64 `json:"speedup_vs_heap"`
	// AllocsPerEvent is heap objects allocated per schedule+fire cycle on
	// the calendar kernel after warmup (malloc-count delta, not bytes).
	AllocsPerEvent float64 `json:"allocs_per_event"`
}

type engineGroupResult struct {
	Shards           int     `json:"shards"`
	EventsPerShard   int     `json:"events_per_shard"`
	SerialFired      uint64  `json:"serial_fired"`
	ParallelFired    uint64  `json:"parallel_fired"`
	SerialEvPerSec   float64 `json:"serial_ev_per_sec"`
	ParallelEvPerSec float64 `json:"parallel_ev_per_sec"`
	ParallelWorkers  int     `json:"parallel_workers"`
	Identical        bool    `json:"identical"`
}

type engineReport struct {
	benchStamp

	Kernel []engineKernelPoint `json:"kernel"`
	// HeadlineSpeedup is calendar over the seed-era baseline kernel at
	// the largest measured population — the number the tentpole claims.
	HeadlineSpeedup float64 `json:"headline_speedup"`
	// MaxAllocsPerEvent is the worst allocation rate across the kernel
	// points; the steady-state path is supposed to pin this at zero.
	MaxAllocsPerEvent float64 `json:"max_allocs_per_event"`

	Group engineGroupResult `json:"group"`

	// Engine end-to-end: a generated stress scenario through the full
	// pipeline (placement, staging, netsim, execution, trace).
	// EngineAllocsPerTask is heap objects allocated over the whole run
	// (validate, build, simulate) per completed task.
	EngineNodes         int     `json:"engine_nodes"`
	EngineTasks         int64   `json:"engine_tasks"`
	EngineTasksPerSec   float64 `json:"engine_tasks_per_sec"`
	EngineAllocsPerTask float64 `json:"engine_allocs_per_task"`
}

// measureKernel runs a self-perpetuating workload on one kernel kind:
// `pending` event chains with uniform [0,1) gaps, each fired event
// rescheduling itself, holding the population constant. It warms up with
// a tenth of the quota (pool, calendar geometry, branch predictors),
// then times `events` schedule+fire cycles and counts mallocs.
func measureKernel(kind sim.QueueKind, pending, events int) (evPerSec, allocsPerEvent float64) {
	k := sim.NewKernelQueue(kind)
	rng := rand.New(rand.NewSource(12345))
	fired, quota := 0, 0
	var hop func()
	hop = func() {
		k.After(rng.Float64(), hop)
		fired++
		if fired >= quota {
			k.Stop()
		}
	}
	for i := 0; i < pending; i++ {
		k.After(rng.Float64(), hop)
	}
	quota = events / 10
	k.Run() // warmup
	fired, quota = 0, events

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	k.Run()
	dt := time.Since(t0).Seconds()
	runtime.ReadMemStats(&m1)
	return float64(events) / dt, float64(m1.Mallocs-m0.Mallocs) / float64(events)
}

// baseKernel reproduces the pre-refactor event queue exactly as the seed
// shipped it: a container/heap interface queue over *baseTimer pointers
// with per-push index maintenance, one heap allocation per scheduled
// event, and no pooling. It exists only as the benchmark baseline.
type baseKernel struct {
	now     float64
	seq     uint64
	events  baseHeap
	stopped bool
}

type baseTimer struct {
	index     int
	time      float64
	seq       uint64
	fn        func()
	cancelled bool
}

type baseHeap []*baseTimer

func (h baseHeap) Len() int { return len(h) }
func (h baseHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h baseHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index, h[j].index = i, j
}
func (h *baseHeap) Push(x any) {
	t := x.(*baseTimer)
	t.index = len(*h)
	*h = append(*h, t)
}
func (h *baseHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}

func (k *baseKernel) after(d float64, fn func()) *baseTimer {
	k.seq++
	t := &baseTimer{time: k.now + d, seq: k.seq, fn: fn}
	heap.Push(&k.events, t)
	return t
}

func (k *baseKernel) run() {
	k.stopped = false
	for !k.stopped && len(k.events) > 0 {
		t := heap.Pop(&k.events).(*baseTimer)
		if t.cancelled {
			continue
		}
		k.now = t.time
		t.fn()
	}
}

// measureBaseline drives the identical self-perpetuating workload as
// measureKernel through the seed-era queue.
func measureBaseline(pending, events int) float64 {
	k := &baseKernel{}
	rng := rand.New(rand.NewSource(12345))
	fired, quota := 0, 0
	var hop func()
	hop = func() {
		k.after(rng.Float64(), hop)
		fired++
		if fired >= quota {
			k.stopped = true
		}
	}
	for i := 0; i < pending; i++ {
		k.after(rng.Float64(), hop)
	}
	quota = events / 10
	k.run()
	fired, quota = 0, events
	t0 := time.Now()
	k.run()
	return float64(events) / time.Since(t0).Seconds()
}

// measureGroup builds the identical sharded workload twice — per-shard
// self-rescheduling chains plus a cross-shard post every 64th event —
// and runs it once with 1 worker and once with a full worker pool. The
// fired totals must agree exactly: that equality is the cheap CI proxy
// for the bit-identical guarantee TestGroupSerialParallelIdentical pins.
func measureGroup(shards, perShard int) engineGroupResult {
	build := func() *sim.Group {
		g := sim.NewGroup(shards, 0.05)
		for s := 0; s < shards; s++ {
			s := s
			rng := rand.New(rand.NewSource(int64(100 + s)))
			k := g.Shard(s)
			remaining := perShard
			var step func()
			step = func() {
				if remaining <= 0 {
					return
				}
				remaining--
				k.After(0.001+rng.Float64(), func() {
					step()
					if remaining%64 == 0 {
						dst := (s + 1) % shards
						g.Post(s, dst, k.Now()+g.Lookahead()+rng.Float64(), func() {})
					}
				})
			}
			step()
		}
		return g
	}
	workers := runtime.NumCPU()
	res := engineGroupResult{Shards: shards, EventsPerShard: perShard, ParallelWorkers: workers}

	gs := build()
	t0 := time.Now()
	res.SerialFired = gs.Run(1)
	res.SerialEvPerSec = float64(res.SerialFired) / time.Since(t0).Seconds()

	gp := build()
	t0 = time.Now()
	res.ParallelFired = gp.Run(workers)
	res.ParallelEvPerSec = float64(res.ParallelFired) / time.Since(t0).Seconds()

	res.Identical = res.SerialFired == res.ParallelFired
	return res
}

// runEngineBench measures the trajectory and writes the JSON report.
// With gate set it fails unless (a) calendar throughput at the largest
// population clears floor, (b) the calendar at least matches the heap
// reference there, (c) steady-state allocation is ~zero, and (d) the
// parallel Group run fired exactly the serial count.
func runEngineBench(quick bool, out string, gate bool, floor float64) error {
	populations := []int{1_000, 10_000, 100_000, 1_000_000}
	events := 2_000_000
	groupPerShard := 300_000
	engineNodes := 256
	if quick {
		populations = []int{1_000, 100_000}
		events = 300_000
		groupPerShard = 50_000
		engineNodes = 64
	}

	rep := &engineReport{benchStamp: newStamp()}
	for _, pending := range populations {
		p := engineKernelPoint{Pending: pending, Events: events}
		p.CalendarEvPerSec, p.AllocsPerEvent = measureKernel(sim.QueueCalendar, pending, events)
		p.HeapEvPerSec, _ = measureKernel(sim.QueueHeap, pending, events)
		p.BaselineEvPerSec = measureBaseline(pending, events)
		p.Speedup = p.CalendarEvPerSec / p.BaselineEvPerSec
		p.SpeedupVsHeap = p.CalendarEvPerSec / p.HeapEvPerSec
		rep.Kernel = append(rep.Kernel, p)
		if p.AllocsPerEvent > rep.MaxAllocsPerEvent {
			rep.MaxAllocsPerEvent = p.AllocsPerEvent
		}
		fmt.Printf("kernel %8d pending: calendar %11.0f ev/s  heap %11.0f ev/s  baseline %11.0f ev/s  %5.1fx vs baseline  %.4f allocs/ev\n",
			pending, p.CalendarEvPerSec, p.HeapEvPerSec, p.BaselineEvPerSec, p.Speedup, p.AllocsPerEvent)
	}
	last := rep.Kernel[len(rep.Kernel)-1]
	rep.HeadlineSpeedup = last.Speedup

	rep.Group = measureGroup(8, groupPerShard)
	fmt.Printf("group  %d shards x %d events: serial %.0f ev/s, parallel(%d workers) %.0f ev/s, identical=%v\n",
		rep.Group.Shards, rep.Group.EventsPerShard, rep.Group.SerialEvPerSec,
		rep.Group.ParallelWorkers, rep.Group.ParallelEvPerSec, rep.Group.Identical)

	s := scenario.GenerateStress(scenario.StressSpec{Nodes: engineNodes, Seed: 7, Origins: 16, Horizon: 20})
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	r, err := s.Run()
	if err != nil {
		return err
	}
	dt := time.Since(t0).Seconds()
	runtime.ReadMemStats(&m1)
	rep.EngineNodes = engineNodes
	rep.EngineTasks = r.Completed
	rep.EngineTasksPerSec = float64(r.Completed) / dt
	rep.EngineAllocsPerTask = float64(m1.Mallocs-m0.Mallocs) / float64(r.Completed)
	fmt.Printf("engine %d nodes: %d tasks end-to-end, %.0f tasks/sec, %.1f allocs/task\n",
		engineNodes, rep.EngineTasks, rep.EngineTasksPerSec, rep.EngineAllocsPerTask)

	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)

	if gate {
		if last.CalendarEvPerSec < floor {
			return fmt.Errorf("engine gate failed: calendar %.0f ev/s at %d pending below floor %.0f",
				last.CalendarEvPerSec, last.Pending, floor)
		}
		if last.SpeedupVsHeap < 1 {
			return fmt.Errorf("engine gate failed: calendar slower than heap reference (%.2fx) at %d pending",
				last.SpeedupVsHeap, last.Pending)
		}
		if rep.HeadlineSpeedup < 1.5 {
			return fmt.Errorf("engine gate failed: only %.2fx over the seed-era baseline at %d pending",
				rep.HeadlineSpeedup, last.Pending)
		}
		if rep.MaxAllocsPerEvent > 0.01 {
			return fmt.Errorf("engine gate failed: %.4f allocs/event on the steady-state path, want ~0",
				rep.MaxAllocsPerEvent)
		}
		if !rep.Group.Identical {
			return fmt.Errorf("engine gate failed: parallel group fired %d events, serial fired %d",
				rep.Group.ParallelFired, rep.Group.SerialFired)
		}
	}
	return nil
}
