package main

import (
	"sync"
	"time"
)

// schedOp is one request of an open-loop schedule.
type schedOp struct {
	due  time.Duration // offset from the schedule's start
	conn int           // connection (worker) that sends it
	kind int
	slot int
}

// sample is one request's outcome. Latency runs from the due time, so
// a stall also counts the wait it imposes on the requests behind it.
type sample struct {
	kind    int
	latency time.Duration // completion - due
	late    time.Duration // generator lateness: release - due
	virtS   float64       // virtual seconds the request advanced
	err     error
}

// runOpenLoop releases every op to its connection at its due time,
// whether or not earlier requests have completed, and waits for all of
// them. Each connection sends its ops one at a time in release order,
// so at most conns requests are in flight. do performs one request.
func runOpenLoop(ops []schedOp, conns int, do func(op schedOp) (virtS float64, err error)) []sample {
	out := make([]sample, len(ops))
	type released struct {
		i  int
		at time.Time
	}
	queues := make([]chan released, conns)
	for c := range queues {
		// Sized to the number of sends, so the generator never blocks
		// on a busy connection: that is what makes the loop open.
		queues[c] = make(chan released, len(ops))
	}
	start := time.Now()
	var wg sync.WaitGroup
	for c := range queues {
		wg.Add(1)
		go func(q chan released) {
			defer wg.Done()
			for r := range q {
				op := ops[r.i]
				due := start.Add(op.due)
				v, err := do(op)
				out[r.i] = sample{kind: op.kind, latency: time.Since(due), late: r.at.Sub(due), virtS: v, err: err}
			}
		}(queues[c])
	}
	for i, op := range ops {
		if d := time.Until(start.Add(op.due)); d > 0 {
			time.Sleep(d)
		}
		queues[op.conn] <- released{i, time.Now()}
	}
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	return out
}

// uniformSchedule spaces n ops evenly at rate per second, round-robin
// over conns connections, with kinds and slots from pick.
func uniformSchedule(n int, rate float64, conns int, pick func(i int) (kind, slot int)) []schedOp {
	ops := make([]schedOp, n)
	for i := range ops {
		kind, slot := pick(i)
		ops[i] = schedOp{
			due:  time.Duration(float64(i) / rate * float64(time.Second)),
			conn: slot % conns,
			kind: kind,
			slot: slot,
		}
	}
	return ops
}

// runClosedLoop has each of conns connections send its next op as soon
// as its previous one completes, until seconds have passed, and waits
// for all of them. next(c) draws connection c's next op; it is called
// only from that connection's goroutine. It returns the outcomes, in no
// particular order, and the wall time from the first send to the last
// completion. Latency is timed from the send: in a closed loop no
// request waits behind a schedule.
func runClosedLoop(conns int, seconds float64, next func(conn int) schedOp, do func(op schedOp) (virtS float64, err error)) ([]sample, time.Duration) {
	per := make([][]sample, conns)
	start := time.Now()
	stop := start.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(stop) {
				op := next(c)
				s := time.Now()
				v, err := do(op)
				per[c] = append(per[c], sample{kind: op.kind, latency: time.Since(s), virtS: v, err: err})
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	var out []sample
	for _, ss := range per {
		out = append(out, ss...)
	}
	return out, wall
}
