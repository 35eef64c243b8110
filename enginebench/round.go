package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"sync"
	"syscall"
	"time"

	"github.com/go-atomicswap/atomicswap/internal/chain"
	"github.com/go-atomicswap/atomicswap/internal/durable"
	"github.com/go-atomicswap/atomicswap/internal/engine"
	"github.com/go-atomicswap/atomicswap/internal/engine/loadgen"
	"github.com/go-atomicswap/atomicswap/internal/hashkey"
	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

// roundResult is what one round measured and checked.
type roundResult struct {
	traced bool

	setup, wall, cpu, recover time.Duration
	offered, final, failed    int
	allocs, allocBytes        uint64
	peakHeap                  uint64
	settleP50, settleP99      float64
	lateMax                   int64

	swaps, chainBytes, chainRecords int

	signs         uint64
	cache         hashkey.CacheStats
	clearRounds   int
	resvConflicts int
	peakInFlight  int
	gcShare       float64
	gcCycles      uint64

	walEvents                        int
	walBytes                         int64
	recoverEvents, resumed, refunded int
	conformingLock, griefing         uint64

	depth   []int
	spans   []span
	profile []byte

	violations []string
}

// counters is a snapshot of the process-wide figures a round diffs.
type counters struct {
	wall            time.Time
	cpu             time.Duration
	allocs, bytes   uint64
	gcCPU, totalCPU float64
	gcCycles        uint64
}

var sampleNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

func readCounters() counters {
	s := make([]metrics.Sample, len(sampleNames))
	for i, n := range sampleNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return counters{
		wall:     time.Now(),
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs:   s[0].Value.Uint64(),
		bytes:    s[1].Value.Uint64(),
		gcCPU:    s[2].Value.Float64(),
		totalCPU: s[3].Value.Float64(),
		gcCycles: s[4].Value.Uint64(),
	}
}

// heapPeak polls the live heap (as marked by the last GC) until stopped
// and keeps the largest value seen.
type heapPeak struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func watchHeap() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	go func() {
		defer close(h.done)
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops the poller, waits for it, and returns the peak.
func (h *heapPeak) finish() uint64 {
	close(h.stop)
	<-h.done
	return h.peak
}

// profileHz is the CPU profile's sampling rate in traced rounds.
const profileHz = 1000

// runRound runs one round of w: build the engine (and, for crash rounds,
// the store), stream the offers in open loop, drain, and check every
// order. scratch is a directory the round may use for its WAL.
func runRound(w workload, seed int64, traced bool, scratch string) (*roundResult, error) {
	runtime.GC() // start every round from the same heap
	res := &roundResult{traced: traced}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	heap := watchHeap()
	begin := time.Now()
	var profBuf bytes.Buffer // StopCPUProfile returns after the last write
	if traced {
		// 100 Hz, the runtime/pprof default, gives too few samples per
		// round; setting the rate first makes StartCPUProfile keep it
		// (the runtime prints a warning to standard error when it does).
		runtime.SetCPUProfileRate(profileHz)
		if err := pprof.StartCPUProfile(&profBuf); err != nil {
			heap.finish()
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	// stopMeasuring ends the profile and the heap watch, on every path.
	stopMeasuring := sync.OnceFunc(func() {
		if traced {
			pprof.StopCPUProfile()
			res.profile = profBuf.Bytes()
		}
		res.peakHeap = heap.finish()
	})
	defer stopMeasuring()

	cfg := w.engineConfig(seed)
	var (
		wal    *durable.Store
		walDir string
		ws     *store
	)
	if w.crash {
		var err error
		walDir, err = os.MkdirTemp(scratch, "wal-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(walDir)
		// Automatic snapshots stay off: a cut-tick recovery needs the raw
		// event stream.
		if wal, err = durable.Open(durable.Options{Dir: walDir}); err != nil {
			return nil, err
		}
		ws = &store{inner: wal, tr: tr}
		cfg.Store = ws
	}
	e := engine.New(cfg)
	// Hold the clock from before Start: the engine's first clearing timer
	// would otherwise let it run ahead of arrivals not yet queued.
	startHold := e.Scheduler().Hold()
	defer startHold()
	if err := e.Start(); err != nil {
		return nil, err
	}

	var start counters
	var cut vtime.Ticks
	killed := make(chan struct{})
	tgt := &target{Engine: e, tr: tr, startHold: startHold, onFirst: func() { start = readCounters() }}
	if w.crash {
		tgt.killAt = w.offers
		tgt.killDelay = w.killDelay
		tgt.onKill = func() {
			cut = e.Kill()
			close(killed)
		}
	}
	lcfg := w.loadConfig(seed)
	stats, err := loadgen.Run(ctx, tgt, lcfg)
	if err != nil {
		e.Stop(ctx)
		return nil, fmt.Errorf("load: %w", err)
	}

	final := e // the engine whose books hold every order at the end
	var recovery *durable.Recovery
	if w.crash {
		select {
		case <-killed:
		case <-ctx.Done():
			e.Stop(ctx)
			return nil, errors.New("crash-recover: the kill never fired")
		}
		if err := e.Stop(ctx); err != nil {
			return nil, fmt.Errorf("post-kill drain: %w", err)
		}
		if err := wal.Close(); err != nil {
			return nil, fmt.Errorf("closing the WAL: %w", err)
		}
		recBegin := time.Now()
		b, rec, err := durable.Recover(w.engineConfig(seed), durable.RecoverOptions{Dir: walDir, CutTick: cut})
		recEnd := time.Now()
		if err != nil {
			return nil, fmt.Errorf("recover: %w", err)
		}
		if tr != nil {
			tr.add("durable.Recover", 0, recBegin, recEnd)
		}
		res.recover = recEnd.Sub(recBegin)
		recovery = rec
		if err := b.Start(); err != nil {
			return nil, err
		}
		final = b
	}
	drainBegin := time.Now()
	if err := final.Stop(ctx); err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}
	end := readCounters()
	stopMeasuring()
	if tr != nil {
		tr.add("engine.Drain", 0, drainBegin, end.wall)
		tr.add("round", 0, begin, end.wall)
		res.spans = tr.spans
	}

	// Everything below is outside the measured window.
	res.setup = start.wall.Sub(begin)
	res.wall = end.wall.Sub(start.wall)
	res.cpu = end.cpu - start.cpu
	res.allocs = end.allocs - start.allocs
	res.allocBytes = end.bytes - start.bytes
	res.gcCycles = end.gcCycles - start.gcCycles
	if d := end.totalCPU - start.totalCPU; d > 0 {
		res.gcShare = (end.gcCPU - start.gcCPU) / d
	}
	res.offered = stats.Offered
	if stats.Shed > 0 || stats.Refused > 0 {
		res.violations = append(res.violations, fmt.Sprintf("intake: %d shed, %d refused of %d offered",
			stats.Shed, stats.Refused, stats.Offered))
	}

	engines := []*engine.Engine{e}
	if final != e {
		engines = append(engines, final)
	}
	// Work is summed over both lives of a crash round; swaps are counted
	// once, from the books of the engine that finished them (a recovered
	// engine restores the swaps settled before the crash).
	res.swaps = final.Report().SwapsFinished
	for _, x := range engines {
		rep := x.Report()
		res.signs += rep.Signs
		if ec := rep.Economics; ec != nil {
			res.conformingLock += ec.ConformingLockTokenTicks
			res.griefing += ec.GriefingCostTokenTicks
		}
		res.resvConflicts += rep.ResvConflicts
		res.clearRounds += x.ClearRounds()
		if rep.PeakConcurrent > res.peakInFlight {
			res.peakInFlight = rep.PeakConcurrent
		}
		if rep.SwapsFailed > 0 {
			res.violations = append(res.violations, fmt.Sprintf("%d swaps failed outright", rep.SwapsFailed))
		}
		cs := x.VerifyCacheStats()
		res.cache.Hits += cs.Hits
		res.cache.Fastpath += cs.Fastpath
		res.cache.Misses += cs.Misses
		reg := x.Registry()
		res.chainBytes += reg.TotalStorageBytes()
		for _, name := range reg.Names() {
			res.chainRecords += len(reg.Chain(name).Records())
		}
	}
	if ws != nil {
		res.walEvents = ws.events
		res.walBytes = dirBytes(walDir)
	}
	if recovery != nil {
		res.recoverEvents = recovery.Events
		res.resumed = recovery.Resumed
		res.refunded = recovery.Refunded
	}

	// The ledger audit: hash chains intact and every minted asset
	// accounted for. A recovered engine is held to ledger integrity (the
	// crash may orphan escrow on the first life's chains), and so is a
	// run whose no-claim deviants leave claimable escrow on purpose.
	audit := final.VerifyConservation
	if w.crash || !w.allConforming() {
		audit = final.VerifyLedgerIntegrity
	}
	if err := audit(); err != nil {
		res.violations = append(res.violations, "ledger audit: "+err.Error())
	}
	if final != e {
		if err := e.VerifyLedgerIntegrity(); err != nil {
			res.violations = append(res.violations, "ledger audit before the crash: "+err.Error())
		}
	}

	// Latency counts from the tick each offer was due, so a late
	// generator shows in it. Arrival i of the schedule is the i-th
	// Submit: nothing is shed, and same-tick arrivals fire in order.
	due := loadgen.Schedule(lcfg.Process, stats.Offered, lcfg.Rate, tick, lcfg.Seed)
	dueOf := make(map[engine.OrderID]vtime.Ticks, len(tgt.subs))
	for i, s := range tgt.subs {
		d := s.at
		if i < len(due) && stats.Shed == 0 {
			d = due[i]
		}
		dueOf[s.id] = d
		if late := int64(s.at - d); late > res.lateMax {
			res.lateMax = late
		}
	}
	orders := final.Orders()
	ok, bad := checkOrders(tgt.subs, orders, registryOwner(final.Registry()), w.allConforming())
	res.violations = append(res.violations, bad...)
	res.final = ok
	res.failed = res.offered - ok
	var lat []float64
	for _, o := range orders {
		if d, seen := dueOf[o.ID]; seen && o.Status == engine.StatusSettled {
			lat = append(lat, float64(o.SettledTick-d))
		}
	}
	sort.Float64s(lat)
	res.settleP50 = percentile(lat, 0.50)
	res.settleP99 = percentile(lat, 0.99)
	res.depth = tgt.depth
	return res, nil
}

// registryOwner reads an asset's owner straight from its chain.
func registryOwner(reg *chain.Registry) ownerFunc {
	return func(chainName string, asset chain.AssetID) (chain.Owner, bool) {
		return reg.Chain(chainName).OwnerOf(asset)
	}
}

func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil // a missing entry only undercounts the report
		}
		if info, err := d.Info(); err == nil {
			n += info.Size()
		}
		return nil
	})
	return n
}
