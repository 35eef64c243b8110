package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// layerMetrics builds the per-layer table from the traced rounds: counts
// from the engine's public surfaces, span timings from the benchmark's
// wrappers, CPU shares from the rounds' profiles. The tracing overhead
// compares the traced rounds' throughput with the untraced ones'.
func layerMetrics(traced, plain []*roundResult) map[string]metric {
	per := func(f func(r *roundResult) float64) float64 {
		v := make([]float64, len(traced))
		for i, r := range traced {
			v[i] = f(r)
		}
		return median(v)
	}
	perSwap := func(f func(r *roundResult) float64) float64 {
		return per(func(r *roundResult) float64 { return f(r) / float64(max(r.swaps, 1)) })
	}
	perOrder := func(f func(r *roundResult) float64) float64 {
		return per(func(r *roundResult) float64 { return f(r) / float64(max(r.final, 1)) })
	}
	spanMeanUs := func(name string) float64 {
		return per(func(r *roundResult) float64 {
			var n int
			var sum time.Duration
			for _, s := range r.spans {
				if s.name == name {
					n++
					sum += s.end - s.start
				}
			}
			if n == 0 {
				return 0
			}
			return float64(sum) / float64(n) / float64(time.Microsecond)
		})
	}
	depth := func(q float64) float64 {
		return per(func(r *roundResult) float64 {
			d := make([]float64, len(r.depth))
			for i, x := range r.depth {
				d[i] = float64(x)
			}
			sort.Float64s(d)
			return percentile(d, q)
		})
	}

	var cpu attribution
	for _, r := range traced {
		if p, err := parseProfile(r.profile); err == nil {
			cpu.merge(attribute(p))
		} else {
			fmt.Println("profile:", err)
		}
	}
	throughput := func(rs []*roundResult) float64 {
		v := make([]float64, len(rs))
		for i, r := range rs {
			v[i] = float64(r.final) / r.wall.Seconds()
		}
		return median(v)
	}
	overhead := 0.0
	if t := throughput(traced); t > 0 {
		overhead = throughput(plain)/t - 1
	}

	m := map[string]metric{
		"engine.submit_us":                     {spanMeanUs("engine.Submit"), "us"},
		"engine.book_depth_p50":                {depth(0.50), "count"},
		"engine.book_depth_max":                {depth(1), "count"},
		"engine.clear_rounds_per_swap":         {perSwap(func(r *roundResult) float64 { return float64(r.clearRounds) }), "count"},
		"engine.clearing_cpu_share":            {cpu.share(cpu.inclusive["engine.clearing"]), "ratio"},
		"loadgen.late_ticks_max":               {per(func(r *roundResult) float64 { return float64(r.lateMax) }), "ticks"},
		"core.partition_cpu_share":             {cpu.share(cpu.inclusive["core.partition"]), "ratio"},
		"core.setup_cpu_share":                 {cpu.share(cpu.inclusive["core.setup"]), "ratio"},
		"chain.reservation_conflicts":          {per(func(r *roundResult) float64 { return float64(r.resvConflicts) }), "count"},
		"chain.records_per_swap":               {perSwap(func(r *roundResult) float64 { return float64(r.chainRecords) }), "count"},
		"hashkey.signs_per_swap":               {perSwap(func(r *roundResult) float64 { return float64(r.signs) }), "count"},
		"hashkey.verify_hits_per_swap":         {perSwap(func(r *roundResult) float64 { return float64(r.cache.Hits) }), "count"},
		"hashkey.verify_fastpath_per_swap":     {perSwap(func(r *roundResult) float64 { return float64(r.cache.Fastpath) }), "count"},
		"hashkey.verify_misses_per_swap":       {perSwap(func(r *roundResult) float64 { return float64(r.cache.Misses) }), "count"},
		"conc.peak_in_flight":                  {per(func(r *roundResult) float64 { return float64(r.peakInFlight) }), "count"},
		"runtime.morestack_share":              {cpu.share(cpu.inclusive["runtime.morestack"]), "ratio"},
		"runtime.sprintf_share":                {cpu.share(cpu.inclusive["runtime.sprintf"]), "ratio"},
		"runtime.gc_cpu_share":                 {per(func(r *roundResult) float64 { return r.gcShare }), "ratio"},
		"runtime.gc_cycles_per_kilo_order":     {perOrder(func(r *roundResult) float64 { return 1000 * float64(r.gcCycles) }), "count"},
		"durable.append_us":                    {spanMeanUs("durable.Append"), "us"},
		"durable.events_per_order":             {perOrder(func(r *roundResult) float64 { return float64(r.walEvents) }), "count"},
		"durable.wal_bytes_per_order":          {perOrder(func(r *roundResult) float64 { return float64(r.walBytes) }), "bytes"},
		"durable.recover_events":               {per(func(r *roundResult) float64 { return float64(r.recoverEvents) }), "count"},
		"durable.resumed":                      {per(func(r *roundResult) float64 { return float64(r.resumed) }), "count"},
		"durable.refunded":                     {per(func(r *roundResult) float64 { return float64(r.refunded) }), "count"},
		"durable.recover_s":                    {per(func(r *roundResult) float64 { return r.recover.Seconds() }), "s"},
		"metrics.conforming_lock_tt_per_order": {perOrder(func(r *roundResult) float64 { return float64(r.conformingLock) }), "token-ticks"},
		"metrics.griefing_cost":                {per(func(r *roundResult) float64 { return float64(r.griefing) }), "token-ticks"},
		"trace.overhead_share":                 {overhead, "ratio"},
	}
	for _, mod := range []string{"hashkey", "chain", "htlc", "conc", "sched"} {
		m[mod+".cpu_share"] = metric{cpu.share(cpu.module[mod]), "ratio"}
	}
	fmt.Printf("cpu profile: %d samples over %d traced rounds; by innermost repository package:\n", cpu.total, len(traced))
	mods := make([]string, 0, len(cpu.module))
	for k := range cpu.module {
		mods = append(mods, k)
	}
	sort.Slice(mods, func(i, j int) bool { return cpu.module[mods[i]] > cpu.module[mods[j]] })
	for _, k := range mods {
		fmt.Printf("  %-10s %6.2f%%\n", k, 100*cpu.share(cpu.module[k]))
	}
	return m
}

func printLayers(m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Println("per-layer metrics (medians over traced rounds; shares over all their profile samples):")
	for _, k := range names {
		fmt.Printf("  %-38s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
	fmt.Printf("tracing overhead: traced rounds cleared %.1f%% fewer orders per second than untraced ones\n",
		100*m["trace.overhead_share"].Value/(1+m["trace.overhead_share"].Value))
}

// printSpans summarises the spans of the traced rounds by name.
func printSpans(rounds []*roundResult) {
	type agg struct {
		n          int
		total, max time.Duration
	}
	by := map[string]*agg{}
	for _, r := range rounds {
		for _, s := range r.spans {
			a := by[s.name]
			if a == nil {
				a = &agg{}
				by[s.name] = a
			}
			d := s.end - s.start
			a.n++
			a.total += d
			a.max = max(a.max, d)
		}
	}
	names := make([]string, 0, len(by))
	for k := range by {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Println("spans (all traced rounds):")
	for _, k := range names {
		a := by[k]
		fmt.Printf("  %-16s n=%-8d total=%9.1fms mean=%9.2fus max=%9.1fus\n",
			k, a.n, ms(a.total), float64(a.total)/float64(a.n)/1e3, float64(a.max)/1e3)
	}
}

// writeSpans dumps every span of the traced rounds as JSON lines.
func writeSpans(path string, rounds []*roundResult) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i, r := range rounds {
		for _, s := range r.spans {
			if err := enc.Encode(map[string]any{
				"round": i, "name": s.name, "req": s.req,
				"start_ns": int64(s.start), "end_ns": int64(s.end),
			}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
