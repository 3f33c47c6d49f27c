package main

// The -spec mode measures speculative execution end to end and writes
// BENCH_speculation.json. Two sections:
//
//   - sim:  the F11 setup distilled — a heavy-tailed task bag over a
//     three-tier continuum with one 10x-degraded gateway under
//     queue-blind round-robin placement, run with speculation off and
//     on, reporting p50/p99 and the wasted-work fraction.
//   - live: two in-process endpoints over loopback TCP, one of which
//     stalls a fraction of its calls; a ReliableClient runs the same
//     call mix unhedged and hedged (fixed 5ms delay), reporting p50/p99
//     client latency, hedge counts, and — the correctness gate — zero
//     lost or misrouted responses.

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"sort"
	"sync"
	"time"

	"continuum/internal/core"
	"continuum/internal/faas"
	"continuum/internal/placement"
	"continuum/internal/task"
	"continuum/internal/wire"
	"continuum/internal/workload"
)

type specSimRun struct {
	P50Seconds  float64 `json:"p50_s"`
	P99Seconds  float64 `json:"p99_s"`
	Completed   int64   `json:"completed"`
	Backups     int64   `json:"backups,omitempty"`
	Wins        int64   `json:"wins,omitempty"`
	WastedFrac  float64 `json:"wasted_frac,omitempty"`
	Lost        int64   `json:"lost"`
	Speculation bool    `json:"speculation"`
}

type specLiveRun struct {
	P50Millis float64 `json:"p50_ms"`
	P99Millis float64 `json:"p99_ms"`
	Calls     int     `json:"calls"`
	Hedges    int64   `json:"hedges,omitempty"`
	HedgeWins int64   `json:"hedge_wins,omitempty"`
	Lost      int     `json:"lost"`
	Mismatch  int     `json:"mismatched"`
	Hedged    bool    `json:"hedged"`
}

type specReport struct {
	benchStamp

	SimSlowdown float64      `json:"sim_slowdown"`
	Sim         []specSimRun `json:"sim"`
	// SimP99Speedup is baseline p99 over speculative p99 in the simulator.
	SimP99Speedup float64 `json:"sim_p99_speedup"`

	LiveConcurrency int           `json:"live_concurrency"`
	Live            []specLiveRun `json:"live"`
	// LiveP99Speedup is unhedged p99 over hedged p99 on the live path.
	LiveP99Speedup float64 `json:"live_p99_speedup"`
}

// specSim runs the distilled F11 scenario once per speculation setting.
func specSim(slowdown float64) []specSimRun {
	runs := make([]specSimRun, 0, 2)
	for _, spec := range []bool{false, true} {
		tt := core.BuildThreeTier(core.DefaultThreeTierParams(4, 4))
		tt.Gateways[0].CoreFlops /= slowdown
		rng := workload.NewRNG(7)
		var jobs []core.StreamJob
		for g := range tt.Sensors {
			for _, s := range tt.Sensors[g] {
				arr := workload.NewPoisson(rng.Split(), 1.2)
				sizes := rng.Split()
				t := 0.0
				for {
					t += arr.Next()
					if t > 30 {
						break
					}
					jobs = append(jobs, core.StreamJob{
						Task: &task.Task{
							Name:        "analyze",
							ScalarWork:  5e8 * sizes.Lognormal(0, 0.8),
							OutputBytes: 128,
							Inputs:      []task.DataRef{{Name: "reading", Bytes: 1024}},
						},
						Origin: s.ID,
						Submit: t,
					})
				}
			}
		}
		opts := core.ReliableOptions{MaxRetries: 2}
		if spec {
			opts.Speculate = core.SpeculateOptions{Quantile: 0.80, Multiple: 2, MinSamples: 50}
		}
		st := tt.RunStreamReliable(&placement.RoundRobin{}, jobs, tt.ComputeNodes(), opts)
		run := specSimRun{
			P50Seconds:  st.Latency.P50(),
			P99Seconds:  st.Latency.P99(),
			Completed:   st.Completed,
			Lost:        st.Lost,
			Speculation: spec,
		}
		if spec {
			run.Backups = st.SpeculativeLaunches
			run.Wins = st.SpeculativeWins
			if st.Completed+st.PreemptedTasks > 0 {
				run.WastedFrac = float64(st.PreemptedTasks) / float64(st.Completed+st.PreemptedTasks)
			}
		}
		runs = append(runs, run)
	}
	return runs
}

// specEndpoint serves "echo" with an injected stall on every stallEvery-th
// call (0 disables), the live straggler for hedging to beat.
func specEndpoint(name string, stallEvery int, stall time.Duration) (string, func(), error) {
	reg := faas.NewRegistry()
	var mu sync.Mutex
	n := 0
	reg.Register("echo", func(p []byte) ([]byte, error) {
		if stallEvery > 0 {
			mu.Lock()
			n++
			straggler := n%stallEvery == 0
			mu.Unlock()
			if straggler {
				time.Sleep(stall)
			}
		}
		return p, nil
	})
	ep := faas.NewEndpoint(faas.EndpointConfig{
		Name: name, Capacity: 64, WarmTTL: time.Minute, PreemptAbandoned: true,
	}, reg)
	srv := &wire.Server{Invoker: ep, Registry: reg, Endpoints: []*faas.Endpoint{ep}, Workers: 64}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	go srv.Serve(lis)
	return lis.Addr().String(), srv.Close, nil
}

// specLive runs n echo calls at the given concurrency through a
// ReliableClient, hedged or not, and reports client-observed latency
// percentiles plus the zero-loss/zero-mismatch correctness counts.
func specLive(addrs []string, n, concurrency int, hedge wire.HedgeConfig) (specLiveRun, error) {
	rc, err := wire.NewReliableClient(wire.ReliableConfig{
		Addrs:       addrs,
		Hedge:       hedge,
		CallTimeout: 5 * time.Second,
	})
	if err != nil {
		return specLiveRun{}, err
	}
	defer rc.Close()

	lats := make([]float64, n)
	status := make([]int, n) // 0 ok, 1 lost, 2 mismatched
	var wg sync.WaitGroup
	per := n / concurrency
	for w := 0; w < concurrency; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				id := w*per + i
				want := fmt.Sprintf("spec-%06d", id)
				start := time.Now()
				out, err := rc.Invoke("echo", []byte(want))
				lats[id] = time.Since(start).Seconds()
				if err != nil {
					status[id] = 1
				} else if string(out) != want {
					status[id] = 2
				}
			}
		}()
	}
	wg.Wait()

	run := specLiveRun{Calls: per * concurrency, Hedged: hedge.Enabled}
	for _, s := range status[:per*concurrency] {
		switch s {
		case 1:
			run.Lost++
		case 2:
			run.Mismatch++
		}
	}
	sorted := append([]float64(nil), lats[:per*concurrency]...)
	sort.Float64s(sorted)
	run.P50Millis = 1e3 * sorted[len(sorted)/2]
	run.P99Millis = 1e3 * sorted[len(sorted)*99/100]
	run.Hedges, run.HedgeWins = rc.HedgeStats()
	return run, nil
}

// runSpecBench produces BENCH_speculation.json: the simulated F11
// distillation plus the live hedged-vs-unhedged comparison.
func runSpecBench(n int, out string) error {
	rep := &specReport{benchStamp: newStamp(), SimSlowdown: 10, LiveConcurrency: 16}

	rep.Sim = specSim(rep.SimSlowdown)
	rep.SimP99Speedup = rep.Sim[0].P99Seconds / rep.Sim[1].P99Seconds
	fmt.Printf("sim   (10x degraded gateway): p99 %.2fs -> %.2fs (%.1fx), %d/%d backups won, %.1f%% wasted\n",
		rep.Sim[0].P99Seconds, rep.Sim[1].P99Seconds, rep.SimP99Speedup,
		rep.Sim[1].Wins, rep.Sim[1].Backups, 100*rep.Sim[1].WastedFrac)

	// Live: one healthy endpoint, one that stalls every 20th call 30ms.
	stallAddr, closeStall, err := specEndpoint("straggler", 20, 30*time.Millisecond)
	if err != nil {
		return err
	}
	defer closeStall()
	fastAddr, closeFast, err := specEndpoint("healthy", 0, 0)
	if err != nil {
		return err
	}
	defer closeFast()
	addrs := []string{stallAddr, fastAddr}

	base, err := specLive(addrs, n, rep.LiveConcurrency, wire.HedgeConfig{})
	if err != nil {
		return err
	}
	hedged, err := specLive(addrs, n, rep.LiveConcurrency,
		wire.HedgeConfig{Enabled: true, Delay: 5 * time.Millisecond})
	if err != nil {
		return err
	}
	rep.Live = []specLiveRun{base, hedged}
	rep.LiveP99Speedup = base.P99Millis / hedged.P99Millis
	fmt.Printf("live  (every 20th call stalls 30ms): p99 %.1fms -> %.1fms (%.1fx), %d hedges, %d wins\n",
		base.P99Millis, hedged.P99Millis, rep.LiveP99Speedup, hedged.Hedges, hedged.HedgeWins)
	if lost := base.Lost + hedged.Lost; lost > 0 {
		return fmt.Errorf("spec bench lost %d responses", lost)
	}
	if mm := base.Mismatch + hedged.Mismatch; mm > 0 {
		return fmt.Errorf("spec bench misrouted %d responses", mm)
	}
	fmt.Printf("correctness: 0 lost, 0 misrouted across %d live calls\n", base.Calls+hedged.Calls)

	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	return nil
}
