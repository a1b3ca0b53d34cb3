package main

import (
	"sync"
	"testing"
	"time"
)

// A request that stalls its connection delays every request queued
// behind it; the open loop must charge that wait to those requests,
// timing each from its due time rather than from when it was sent.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const n, service, gap = 20, 5 * time.Millisecond, time.Millisecond
	ops := uniformSchedule(n, float64(time.Second/gap), 1, func(i int) (int, int) { return opStep2, 0 })
	ss := runOpenLoop(ops, 1, func(schedOp) (float64, error) {
		time.Sleep(service)
		return 0, nil
	})
	if len(ss) != n {
		t.Fatalf("%d samples, want %d", len(ss), n)
	}
	// Op i cannot finish before (i+1) services; it was due at i gaps.
	for i, s := range ss {
		min := time.Duration(i+1)*service - time.Duration(i)*gap
		if s.latency < min {
			t.Errorf("op %d: latency %v < %v: queueing behind the stall was not counted", i, s.latency, min)
		}
		if s.late < 0 || s.late > s.latency {
			t.Errorf("op %d: generator lateness %v outside [0, latency %v]", i, s.late, s.latency)
		}
	}
}

// The generator releases ops on schedule even while the connection is
// busy, so its own lateness stays small when requests pile up.
func TestOpenLoopGeneratorDoesNotWaitForReplies(t *testing.T) {
	ops := uniformSchedule(10, 1000, 1, func(i int) (int, int) { return opStatus, 0 })
	ss := runOpenLoop(ops, 1, func(schedOp) (float64, error) {
		time.Sleep(20 * time.Millisecond)
		return 0, nil
	})
	last := ss[len(ss)-1]
	if last.late > 15*time.Millisecond {
		t.Errorf("generator ran %v late on a 1 ms schedule: it waited for replies", last.late)
	}
	if last.latency < 150*time.Millisecond {
		t.Errorf("last op latency %v: the 9 stalls ahead of it were not counted", last.latency)
	}
}

// Each connection of the closed loop waits for its reply before it
// sends again, so no more than conns requests are ever in flight, and
// the loop stops sending once its time is up.
func TestClosedLoopWaitsForReplies(t *testing.T) {
	const conns, service = 2, 2 * time.Millisecond
	var mu sync.Mutex
	inFlight, most := 0, 0
	ss, wall := runClosedLoop(conns, 0.1, func(c int) schedOp { return schedOp{conn: c, kind: opStep2, slot: c} },
		func(schedOp) (float64, error) {
			mu.Lock()
			inFlight++
			most = max(most, inFlight)
			mu.Unlock()
			time.Sleep(service)
			mu.Lock()
			inFlight--
			mu.Unlock()
			return 1, nil
		})
	if most > conns {
		t.Errorf("%d requests in flight at once, want at most %d", most, conns)
	}
	// 100 ms at 2 ms a request over 2 connections: at most 2*(50+1).
	if n := len(ss); n == 0 || n > conns*(int(100*time.Millisecond/service)+1) {
		t.Errorf("%d requests in 100 ms of 2 ms requests over %d connections", n, conns)
	}
	if wall < 100*time.Millisecond || wall > time.Second {
		t.Errorf("closed loop took %v for a 100 ms run", wall)
	}
}
