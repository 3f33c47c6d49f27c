package main

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"continuum/internal/faas"
	"continuum/internal/retry"
	"continuum/internal/wire"
)

// op is one scheduled request: when it is due (offset from the start of
// the run), which item it sends, and at which priority.
type op struct {
	due  time.Duration
	item int32
	prio faas.Priority
}

// poissonSchedule draws an open-loop arrival schedule over horizon at
// rate requests per second: exponential gaps, each arrival's item and
// priority drawn by pick. The same rng state gives the same schedule.
func poissonSchedule(rng *rand.Rand, rate float64, horizon time.Duration, pick func() (int32, faas.Priority)) []op {
	var sched []op
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= horizon {
			return sched
		}
		it, p := pick()
		sched = append(sched, op{due: due, item: it, prio: p})
	}
}

// outcome is how one request ended, as the oracle judges it.
type outcome uint8

const (
	outPending outcome = iota // never finished (cancelled at the drain bound)
	outOK                     // answered correctly
	outWrong                  // answered, but the answer is wrong
	outRefused                // refused as overloaded: a Retry-After-hinted shed, or a retry the budget denied after one
	outError                  // any other error
)

// drainBound caps how long a run waits for in-flight requests after the
// last one is sent; requests still pending then are cancelled and fail.
const drainBound = 30 * time.Second

// drive sends sched through client, open loop: each wakeup sends every
// request already due, whether or not earlier ones have answered, and
// latency is timed from each request's due time, so a stall in the
// system or the generator counts against every request it delays. rec,
// when set, records a client span per request.
func drive(client *wire.ReliableClient, sched []op, items []item, rec *recorder) *driveResult {
	r := &driveResult{
		lat:  make([]time.Duration, len(sched)),
		late: make([]time.Duration, len(sched)),
		out:  make([]outcome, len(sched)),
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var prioCtx [faas.NumPriorities]context.Context
	for p := faas.PriorityLow; p <= faas.PriorityHigh; p++ {
		prioCtx[p-faas.PriorityLow] = faas.WithPriority(ctx, p)
	}

	var wg sync.WaitGroup
	var inflight atomic.Int64
	start := time.Now()
	for i := 0; i < len(sched); {
		if d := sched[i].due - time.Since(start); d > 0 {
			time.Sleep(d)
			continue
		}
		if f := int(inflight.Load()); f > r.maxInflight {
			r.maxInflight = f
		}
		for ; i < len(sched) && sched[i].due <= time.Since(start); i++ {
			o := sched[i]
			r.late[i] = time.Since(start) - o.due
			inflight.Add(1)
			wg.Add(1)
			go func(i int, o op) {
				defer wg.Done()
				defer inflight.Add(-1)
				it := &items[o.item]
				p := it.payload(int32(i))
				var t0 int64
				if rec != nil {
					t0 = rec.now()
				}
				out, err := client.InvokeContext(prioCtx[o.prio-faas.PriorityLow], it.fn, p)
				if rec != nil {
					rec.add(int32(i), layerClient, -1, t0, err)
				}
				r.lat[i] = time.Since(start) - o.due
				r.out[i] = judge(it, p, out, err)
			}(i, o)
		}
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(drainBound):
		cancel()
		<-done
	}
	return r
}

// judge classifies one request's result.
func judge(it *item, payload, out []byte, err error) outcome {
	if err == nil {
		if it.check(payload, out) {
			return outOK
		}
		return outWrong
	}
	if errors.Is(err, context.Canceled) {
		return outPending
	}
	var re *wire.RemoteError
	if (errors.As(err, &re) && re.Retryable && re.RetryAfter() > 0) || errors.Is(err, retry.ErrBudgetExhausted) {
		return outRefused
	}
	return outError
}

// driveResult is one run of the load generator, indexed by request in
// schedule order.
type driveResult struct {
	lat         []time.Duration // completion time minus due time
	late        []time.Duration // send time minus due time
	out         []outcome
	maxInflight int
}

// count returns how many requests ended with outcome o.
func (r *driveResult) count(o outcome) int {
	n := 0
	for _, x := range r.out {
		if x == o {
			n++
		}
	}
	return n
}
