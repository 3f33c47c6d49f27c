package main

// The -overload mode measures goodput under a sustained flash crowd,
// with and without admission control, over real loopback TCP. Both
// modes face the same offered load — many more concurrent callers than
// container slots. Without admission every request queues toward the
// QueueWait bound, so almost nothing finishes inside the SLO once the
// queue builds; with admission the adaptive bound sheds the excess
// fail-fast (clients honor the Retry-After hint) and the accepted
// requests keep finishing on time. The JSON report lands in
// BENCH_overload.json so the numbers ride along with the code.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"sort"
	"sync"
	"time"

	"continuum/internal/faas"
	"continuum/internal/wire"
)

const (
	overloadCapacity = 4
	overloadWorkers  = 64 // 16x the slots: a deep flash crowd
	overloadWork     = 5 * time.Millisecond
	overloadSLO      = 50 * time.Millisecond
)

type overloadMode struct {
	Name      string  `json:"name"`
	Offered   int64   `json:"offered"`
	Completed int64   `json:"completed"`
	WithinSLO int64   `json:"within_slo"`
	Shed      int64   `json:"shed"`
	Seconds   float64 `json:"seconds"`
	// GoodputPerSec counts completions inside the SLO per second — the
	// number overload control exists to protect.
	GoodputPerSec float64 `json:"goodput_per_sec"`
	P50MS         float64 `json:"p50_ms"`
	P99MS         float64 `json:"p99_ms"`
}

type overloadReport struct {
	benchStamp
	Capacity int            `json:"capacity"`
	Workers  int            `json:"workers"`
	WorkMS   float64        `json:"work_ms"`
	SLOMS    float64        `json:"slo_ms"`
	Modes    []overloadMode `json:"modes"`
	// GoodputRatio is admission-on goodput over admission-off; the
	// overload-smoke gate asserts it is >= 1.
	GoodputRatio float64 `json:"goodput_ratio_admission_over_none"`
}

// runOverloadBench measures both modes and writes the JSON report. With
// gate set it also fails unless admission at least matches the
// uncontrolled goodput — the claim the overload-smoke CI target pins.
func runOverloadBench(dur time.Duration, out string, gate bool) error {
	rep := &overloadReport{
		benchStamp: newStamp(),
		Capacity:   overloadCapacity, Workers: overloadWorkers,
		WorkMS: float64(overloadWork) / 1e6, SLOMS: float64(overloadSLO) / 1e6,
	}
	for _, admission := range []bool{false, true} {
		m, err := overloadScenario(admission, dur)
		if err != nil {
			return err
		}
		rep.Modes = append(rep.Modes, m)
		fmt.Printf("%-13s %7.0f good/sec  (%d offered, %d completed, %d in-SLO, %d shed; p50 %.1fms p99 %.1fms)\n",
			m.Name, m.GoodputPerSec, m.Offered, m.Completed, m.WithinSLO, m.Shed, m.P50MS, m.P99MS)
	}
	if none := rep.Modes[0].GoodputPerSec; none > 0 {
		rep.GoodputRatio = rep.Modes[1].GoodputPerSec / none
	} else if rep.Modes[1].GoodputPerSec > 0 {
		rep.GoodputRatio = 999 // admission rescued a fully-degraded baseline
	}
	fmt.Printf("goodput with admission / without: %.1fx\n", rep.GoodputRatio)

	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	if gate && rep.Modes[1].GoodputPerSec < rep.Modes[0].GoodputPerSec {
		return fmt.Errorf("goodput gate failed: admission %.0f/sec < no-admission %.0f/sec",
			rep.Modes[1].GoodputPerSec, rep.Modes[0].GoodputPerSec)
	}
	return nil
}

// overloadScenario drives one endpoint configuration with the flash
// crowd for dur and accounts the outcome. Shed callers honor the
// server's Retry-After hint before trying again — the cooperative
// backpressure loop the Retry-After field exists for.
func overloadScenario(admission bool, dur time.Duration) (overloadMode, error) {
	name := "no-admission"
	cfg := faas.EndpointConfig{
		Name: "bench", Capacity: overloadCapacity, WarmTTL: time.Minute,
		QueueWait: 2 * time.Second,
	}
	if admission {
		name = "admission"
		cfg.Admission = faas.AdmissionConfig{
			Enabled:         true,
			MaxQueue:        2 * overloadCapacity,
			TargetQueueWait: 5 * time.Millisecond,
			MinSlots:        overloadCapacity,
			RetryAfterFloor: time.Millisecond,
		}
	}
	reg := faas.NewRegistry()
	reg.Register("work", func(p []byte) ([]byte, error) {
		time.Sleep(overloadWork)
		return p, nil
	})
	ep := faas.NewEndpoint(cfg, reg)
	srv := &wire.Server{Invoker: ep, Registry: reg, Endpoints: []*faas.Endpoint{ep}}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return overloadMode{}, err
	}
	go srv.Serve(lis)
	defer func() { srv.Close(); ep.Close() }()
	addr := lis.Addr().String()

	var mu sync.Mutex
	var offered, completed, withinSLO, shed int64
	var lats []time.Duration
	var firstErr error
	deadline := time.Now().Add(dur)
	var wg sync.WaitGroup
	for w := 0; w < overloadWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := wire.Dial(addr)
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				return
			}
			defer c.Close()
			ctx := context.Background()
			for time.Now().Before(deadline) {
				t0 := time.Now()
				_, err := c.InvokeContext(ctx, "work", []byte("x"))
				elapsed := time.Since(t0)
				mu.Lock()
				offered++
				if err == nil {
					completed++
					lats = append(lats, elapsed)
					if elapsed <= overloadSLO {
						withinSLO++
					}
				} else {
					var re *wire.RemoteError
					if !errors.As(err, &re) || !re.Retryable {
						if firstErr == nil {
							firstErr = err
						}
						mu.Unlock()
						return
					}
					shed++
				}
				mu.Unlock()
				if err != nil {
					var re *wire.RemoteError
					if errors.As(err, &re) && re.RetryAfter() > 0 {
						time.Sleep(re.RetryAfter())
					}
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return overloadMode{}, fmt.Errorf("%s: %w", name, firstErr)
	}
	m := overloadMode{
		Name: name, Offered: offered, Completed: completed,
		WithinSLO: withinSLO, Shed: shed, Seconds: dur.Seconds(),
		GoodputPerSec: float64(withinSLO) / dur.Seconds(),
	}
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		m.P50MS = float64(lats[len(lats)/2]) / 1e6
		m.P99MS = float64(lats[len(lats)*99/100]) / 1e6
	}
	return m, nil
}
