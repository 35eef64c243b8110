package main

import (
	"sync"
	"time"

	"github.com/go-atomicswap/atomicswap/internal/core"
	"github.com/go-atomicswap/atomicswap/internal/engine"
	"github.com/go-atomicswap/atomicswap/internal/engine/loadgen"
	"github.com/go-atomicswap/atomicswap/internal/sched"
	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

// span is one timed call across a layer boundary. Every span of a round
// lies inside that round's "round" span; req is the order a Submit span
// booked or an Append span logged (0 when the event names none).
type span struct {
	name       string
	req        uint64
	start, end time.Duration // since the tracer's epoch
}

// tracer keeps spans in memory; a nil tracer records nothing.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) add(name string, req uint64, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, req: req, start: start.Sub(t.epoch), end: end.Sub(t.epoch)})
	t.mu.Unlock()
}

// submitted is one accepted offer as the benchmark saw it.
type submitted struct {
	id    engine.OrderID
	offer core.Offer
	// at is the tick the engine's clock read when the offer was submitted.
	at vtime.Ticks
}

// target wraps the engine as a loadgen.Target. It records every accepted
// offer for the correctness oracle, marks the first arrival (where set-up
// ends and the measured window starts), arms the crash-recover kill once
// the last offer is in, and, when tracing, times each Submit and samples
// the book depth the arrival found.
type target struct {
	*engine.Engine
	tr *tracer
	// startHold is the clock hold the round took before starting the
	// engine; it goes when loadgen releases the hold it installs the
	// arrival schedule under, so no tick passes before the arrivals are
	// queued and every arrival is due from tick 0.
	startHold func()

	// onFirst runs inside the first arrival's callback, before Submit.
	onFirst func()
	// killAt, when positive, schedules onKill killDelay ticks after the
	// killAt-th accepted offer.
	killAt    int
	killDelay vtime.Duration
	onKill    func()

	mu    sync.Mutex
	subs  []submitted
	calls int
	depth []int // book depth at each arrival (tracing only)
}

var _ loadgen.Target = (*target)(nil)

// Scheduler is the engine's clock with Hold extended to drop startHold.
func (t *target) Scheduler() sched.Scheduler {
	return heldClock{t.Engine.Scheduler(), t.startHold}
}

type heldClock struct {
	sched.Scheduler
	startHold func()
}

func (h heldClock) Hold() func() {
	release := h.Scheduler.Hold()
	return func() {
		release()
		h.startHold()
	}
}

func (t *target) Submit(offer core.Offer) (engine.OrderID, error) {
	t.mu.Lock()
	first := t.calls == 0
	t.calls++
	t.mu.Unlock()
	if first && t.onFirst != nil {
		t.onFirst()
	}
	var start time.Time
	if t.tr != nil {
		t.mu.Lock()
		t.depth = append(t.depth, t.Engine.Pending())
		t.mu.Unlock()
		start = time.Now()
	}
	at := t.Scheduler().Now()
	id, err := t.Engine.Submit(offer)
	if t.tr != nil {
		t.tr.add("engine.Submit", uint64(id), start, time.Now())
	}
	if err != nil {
		return id, err
	}
	t.mu.Lock()
	t.subs = append(t.subs, submitted{id: id, offer: offer, at: at})
	n := len(t.subs)
	t.mu.Unlock()
	if t.killAt > 0 && n == t.killAt {
		sc := t.Scheduler()
		sc.At(sc.Now().Add(t.killDelay), t.onKill)
	}
	return id, err
}

// store wraps the durable store so each WAL append is counted and, when
// tracing, timed.
type store struct {
	inner engine.Store
	tr    *tracer

	mu     sync.Mutex
	events int
}

func (s *store) Append(ev engine.Event) {
	var start time.Time
	if s.tr != nil {
		start = time.Now()
	}
	s.inner.Append(ev)
	if s.tr != nil {
		s.tr.add("durable.Append", uint64(ev.Order), start, time.Now())
	}
	s.mu.Lock()
	s.events++
	s.mu.Unlock()
}
