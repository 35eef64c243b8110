package main

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/go-atomicswap/atomicswap/internal/adversary"
	"github.com/go-atomicswap/atomicswap/internal/core"
	"github.com/go-atomicswap/atomicswap/internal/digraph"
	"github.com/go-atomicswap/atomicswap/internal/engine"
	"github.com/go-atomicswap/atomicswap/internal/engine/loadgen"
	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

// tick is the engine's virtual tick. Rates below are offers per second of
// virtual time, so rate/1000 offers are due per tick on average.
const tick = time.Millisecond

// workload is one open-loop input shape. A round runs offers through a
// fresh deterministic engine until it is drained; a run repeats the same
// round (same seed, so the same inputs) until its time is up.
type workload struct {
	name string
	why  string
	// offers per round; ringMin..ringMax bound the barter-ring sizes.
	offers           int
	ringMin, ringMax int
	// rate is the Poisson arrival rate in offers per virtual second.
	rate float64
	// partyPool reuses that many ring-group identities (0: fresh parties).
	partyPool int
	// maxPending is loadgen's shed threshold (negative: shedding off).
	maxPending int
	// crash runs the engine on a durable store, kills it killDelay ticks
	// after the last arrival, recovers a second engine from the log and
	// drains it.
	crash     bool
	killDelay vtime.Duration
	// silentLeader and noClaim are per-party deviation rates, built into
	// engine.Config.Behaviors from the adversary package's strategies.
	silentLeader, noClaim float64
}

// allConforming reports whether every party follows the protocol, in
// which case paper property (1) applies: every order ends in Deal.
func (w workload) allConforming() bool { return w.silentLeader == 0 && w.noClaim == 0 }

var workloads = []workload{
	{
		name:    "ring-stream",
		why:     "3-party rings from a reused party pool below tick capacity: shallow book, the per-swap protocol path dominates",
		offers:  4500,
		ringMin: 3, ringMax: 3,
		rate:      2000,
		partyPool: 128,
	},
	{
		name:    "deep-book",
		why:     "3-6-party rings far above capacity with shedding off: the pending book grows into the thousands and clearing dominates",
		offers:  8000,
		ringMin: 3, ringMax: 6,
		rate:       100000,
		partyPool:  64,
		maxPending: -1,
	},
	{
		name:    "wide-rings",
		why:     "8-12-party rings: hashkey paths, signatures and chain bytes grow with the diameter while clearing stays cheap",
		offers:  9600,
		ringMin: 8, ringMax: 12,
		rate:      2000,
		partyPool: 32,
	},
	{
		name:    "crash-recover",
		why:     "ring stream with silent-leader and no-claim deviants on a durable WAL, killed with swaps in flight, recovered and drained",
		offers:  3000,
		ringMin: 3, ringMax: 3,
		rate:         2000,
		partyPool:    128,
		crash:        true,
		killDelay:    20,
		silentLeader: 0.03,
		noClaim:      0.03,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// engineConfig is the deterministic engine every round runs on.
func (w workload) engineConfig(seed int64) engine.Config {
	return engine.Config{
		Tick:          tick,
		Seed:          seed,
		Deterministic: true,
		ClearEvery:    2,
		// Deterministic mode has no clear-ahead backpressure, so the job
		// queue must hold every swap the book can produce.
		QueueDepth: w.offers + 64,
		Behaviors:  w.behaviors(),
	}
}

func (w workload) loadConfig(seed int64) loadgen.Config {
	return loadgen.Config{
		Offers:     w.offers,
		RingMin:    w.ringMin,
		RingMax:    w.ringMax,
		Rate:       w.rate,
		Process:    loadgen.Poisson{},
		PartyPool:  w.partyPool,
		MaxPending: w.maxPending,
		Seed:       seed,
	}
}

// behaviors compiles the workload's deviation mix into the engine hook:
// a pure function of the swap's setup and seed, as the engine requires.
func (w workload) behaviors() engine.BehaviorFactory {
	if w.allConforming() {
		return nil
	}
	return func(setup *core.Setup, seed int64) engine.SwapBehaviors {
		rng := rand.New(rand.NewSource(seed ^ 0x6265_6e63))
		spec := setup.Spec
		var sb engine.SwapBehaviors
		deviate := func(v digraph.Vertex, b core.Behavior, name string) {
			if sb.Behaviors == nil {
				sb.Behaviors = make(map[digraph.Vertex]core.Behavior)
				sb.Deviants = make(map[digraph.Vertex]string)
			}
			sb.Behaviors[v] = b
			sb.Deviants[v] = name
		}
		for i := 0; i < spec.D.NumVertices(); i++ {
			v := digraph.Vertex(i)
			u := rng.Float64()
			switch {
			case u < w.silentLeader:
				if idx, ok := spec.LeaderIndex(v); ok {
					deviate(v, adversary.SilentLeader(idx), "silent-leader")
				}
			case u < w.silentLeader+w.noClaim:
				deviate(v, adversary.NoClaim(), "no-claim")
			}
		}
		return sb
	}
}
