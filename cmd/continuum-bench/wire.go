package main

// The -wire mode measures end-to-end wire-protocol throughput over real
// loopback TCP: serial round trips, one call in flight at a time, then
// the same calls pipelined at high concurrency over ONE multiplexed
// connection. The JSON report lands in BENCH_wire.json, stamped with
// the commit, toolchain and host parallelism that produced it.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"continuum/internal/faas"
	"continuum/internal/wire"
)

type wireResult struct {
	Name        string  `json:"name"`
	Concurrency int     `json:"concurrency"`
	Calls       int     `json:"calls"`
	Seconds     float64 `json:"seconds"`
	OpsPerSec   float64 `json:"ops_per_sec"`
}

type wireReport struct {
	benchStamp
	PayloadBytes int          `json:"payload_bytes"`
	Results      []wireResult `json:"results"`

	// SpeedupSameCodec isolates multiplexing: the pipelined run against
	// the serial one, both over the same binary frames.
	SpeedupSameCodec float64 `json:"speedup_parallel_over_serial_same_codec"`

	// FrameBytes64K is the wire size of one 64 KiB invoke request:
	// payload bytes ride raw, so the overhead is the header and fields.
	FrameBytes64K int `json:"frame_bytes_64k"`
}

// benchStamp identifies what produced a BENCH_*.json record: the
// source, the toolchain and the host's parallelism. Reports embed it, so
// its fields lead each record.
type benchStamp struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// newStamp stamps a record produced by this process.
func newStamp() benchStamp {
	return benchStamp{
		Commit: commitStamp(), GoVersion: runtime.Version(),
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// commitStamp names the source the benchmark ran from: the VCS
// revision stamped into the binary, else the checkout's HEAD, with
// "-dirty" when the tree has uncommitted changes.
func commitStamp() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "-dirty"
			}
			return rev
		}
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	rev := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output(); err == nil && len(st) > 0 {
		rev += "-dirty"
	}
	return rev
}

// runWireBench measures calls/sec for each scenario and writes the JSON
// report to out.
func runWireBench(calls, payload, concurrency int, out string) error {
	reg := faas.NewRegistry()
	reg.Register("echo", func(p []byte) ([]byte, error) { return p, nil })
	ep := faas.NewEndpoint(faas.EndpointConfig{
		Name: "bench", Capacity: 2 * concurrency, WarmTTL: time.Minute,
	}, reg)
	srv := &wire.Server{
		Invoker: ep, Registry: reg, Endpoints: []*faas.Endpoint{ep},
		Workers: 2 * concurrency,
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go srv.Serve(lis)
	defer srv.Close()
	addr := lis.Addr().String()

	body := bytes.Repeat([]byte{'x'}, payload)
	rep := &wireReport{benchStamp: newStamp(), PayloadBytes: payload}
	scenarios := []struct {
		name        string
		concurrency int
	}{
		{"serial-binary", 1},
		{fmt.Sprintf("parallel%d-binary", concurrency), concurrency},
	}
	for _, sc := range scenarios {
		secs, err := wireScenario(addr, body, calls, sc.concurrency)
		if err != nil {
			return fmt.Errorf("%s: %w", sc.name, err)
		}
		rep.Results = append(rep.Results, wireResult{
			Name: sc.name, Concurrency: sc.concurrency,
			Calls: calls, Seconds: secs, OpsPerSec: float64(calls) / secs,
		})
		fmt.Printf("%-18s %8.0f ops/sec  (%d calls in %.2fs)\n",
			sc.name, float64(calls)/secs, calls, secs)
	}
	rep.SpeedupSameCodec = rep.Results[1].OpsPerSec / rep.Results[0].OpsPerSec

	big := &wire.Request{Op: wire.OpInvoke, ID: "size-probe", Fn: "echo",
		Payload: bytes.Repeat([]byte{0xAB}, 64<<10)}
	var frame bytes.Buffer
	if err := wire.WriteFrame(&frame, big); err != nil {
		return err
	}
	rep.FrameBytes64K = frame.Len()

	fmt.Printf("speedup parallel over serial: %.1fx\n", rep.SpeedupSameCodec)
	fmt.Printf("64KiB invoke frame: %d B\n", rep.FrameBytes64K)

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

// wireScenario runs `calls` echo invokes split across `concurrency`
// goroutines sharing one multiplexed client, returning wall-clock
// seconds. A short warmup primes warm containers.
func wireScenario(addr string, payload []byte, calls, concurrency int) (float64, error) {
	c, err := wire.Dial(addr)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	for i := 0; i < 2*concurrency; i++ {
		if _, err := c.Invoke("echo", payload); err != nil {
			return 0, err
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, concurrency)
	per := calls / concurrency
	start := time.Now()
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := c.Invoke("echo", payload); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	secs := time.Since(start).Seconds()
	close(errs)
	if err := <-errs; err != nil {
		return 0, err
	}
	return secs, nil
}
