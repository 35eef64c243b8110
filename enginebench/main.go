// Command enginebench is the repository's benchmark: it runs one named
// open-loop workload through the deterministic clearing engine for a
// fixed time, checks every order against an oracle of its own, and
// prints every metric by name and unit. The last line of its output is
// one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1
// they are the per-layer ones, taken from traced rounds (spans around
// every call into a layer, a CPU profile attributed to modules), and the
// run also reports the tracing overhead and writes every span to
// .bench_build/spans-<workload>-<seed>.jsonl. --repeat N runs N seeds in
// fresh processes and prints each metric's median and spread next to its
// bound in BENCHMARK.json. See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: ring-stream, deep-book, wide-rings or crash-recover")
		seed    = flag.Int64("seed", 1, "seed the workload's inputs are made from")
		seconds = flag.Int("seconds", 10, "how long to keep running whole rounds")
		traceOn = flag.Int("trace", 0, "1: report per-layer metrics from traced rounds; 0: end-to-end metrics")
		repeat  = flag.Int("repeat", 0, "run this many seeds (seed, seed+1, ...) in fresh processes and report each metric's median and spread")
	)
	flag.Parse()
	if *repeat > 0 {
		if err := repeatRuns(*name, *seed, *seconds, *traceOn, *repeat); err != nil {
			fmt.Fprintln(os.Stderr, "enginebench:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*name, *seed, *seconds, *traceOn == 1); err != nil {
		fmt.Fprintln(os.Stderr, "enginebench:", err)
		os.Exit(1)
	}
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of every run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(name string, seed int64, seconds int, traced bool) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1, got %d", seconds)
	}
	printHeader(w, seed, seconds, traced)

	// Crash rounds write their WAL, and traced runs their spans, under
	// the build directory of the checkout the benchmark runs in.
	scratch := filepath.Join(".bench_build", "wal")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}

	// Round 0 warms the heap and caches up; it is checked like every
	// round but left out of the medians. Untraced and traced rounds
	// alternate after it when tracing.
	budget := time.Duration(seconds) * time.Second
	minRounds := 4
	if traced {
		minRounds = 5
	}
	res := result{Correct: true, Metrics: map[string]metric{}}
	var plain, withTrace []*roundResult
	steal0, total0, _ := hostSteal()
	began := time.Now()
	for i := 0; i < minRounds || time.Since(began) < budget; i++ {
		r, err := runRound(w, seed, traced && i%2 == 0 && i > 0, scratch)
		if err != nil {
			return fmt.Errorf("%s round %d: %w", w.name, i, err)
		}
		fmt.Printf("round %2d traced=%-5v setup=%6.1fms wall=%7.1fms orders=%d failed=%d cpu/order=%.4fms p50/p99=%.0f/%.0f ticks\n",
			i, r.traced, ms(r.setup), ms(r.wall), r.final, r.failed, ms(r.cpu)/float64(max(r.final, 1)), r.settleP50, r.settleP99)
		for _, v := range r.violations {
			fmt.Println("  VIOLATION", v)
		}
		res.Attempted += r.offered
		res.Failed += r.failed
		if len(r.violations) > 0 {
			res.Correct = false
		}
		switch {
		case i == 0:
		case r.traced:
			withTrace = append(withTrace, r)
		default:
			plain = append(plain, r)
		}
	}
	// Time the hypervisor gave to other guests slows wall-clock figures
	// without any change in the program; print it beside them.
	if steal1, total1, ok := hostSteal(); ok && total1 > total0 {
		fmt.Printf("host: the hypervisor stole %.1f%% of the box's CPU time during the run\n",
			100*(steal1-steal0)/(total1-total0))
	}
	if traced {
		res.Metrics = layerMetrics(withTrace, plain)
		printLayers(res.Metrics)
		printSpans(withTrace)
		path := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.jsonl", w.name, seed))
		if err := writeSpans(path, withTrace); err != nil {
			return err
		}
		fmt.Println("spans written to", path)
	} else {
		res.Metrics = endToEndMetrics(plain)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// endToEndMetrics are the figures a user of the engine sees, each the
// median over the run's rounds.
func endToEndMetrics(rounds []*roundResult) map[string]metric {
	per := func(f func(r *roundResult) float64) float64 {
		v := make([]float64, len(rounds))
		for i, r := range rounds {
			v[i] = f(r)
		}
		return median(v)
	}
	perOrder := func(r *roundResult, x float64) float64 { return x / float64(max(r.final, 1)) }
	return map[string]metric{
		"orders_per_sec":       {per(func(r *roundResult) float64 { return float64(r.final) / r.wall.Seconds() }), "1/s"},
		"cpu_ms_per_order":     {per(func(r *roundResult) float64 { return perOrder(r, ms(r.cpu)) }), "ms"},
		"settle_ticks_p50":     {per(func(r *roundResult) float64 { return r.settleP50 }), "ticks"},
		"settle_ticks_p99":     {per(func(r *roundResult) float64 { return r.settleP99 }), "ticks"},
		"allocs_per_order":     {per(func(r *roundResult) float64 { return perOrder(r, float64(r.allocs)) }), "count"},
		"alloc_kb_per_order":   {per(func(r *roundResult) float64 { return perOrder(r, float64(r.allocBytes)/1024) }), "KB"},
		"peak_heap_mb":         {per(func(r *roundResult) float64 { return float64(r.peakHeap) / (1 << 20) }), "MB"},
		"chain_bytes_per_swap": {per(func(r *roundResult) float64 { return float64(r.chainBytes) / float64(max(r.swaps, 1)) }), "bytes"},
		"setup_s":              {per(func(r *roundResult) float64 { return r.setup.Seconds() }), "s"},
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median of v (v is reordered).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// percentile is the nearest-rank q-quantile of sorted v.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// printHeader names the box and the run, so figures carry their hardware.
func printHeader(w workload, seed int64, seconds int, traced bool) {
	fmt.Printf("box: cpu=%q nproc=%d gomaxprocs=%d go=%s os=%s/%s commit=%s\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(),
		runtime.GOOS, runtime.GOARCH, commit())
	fmt.Printf("run: workload=%s seed=%d seconds=%d trace=%v offers/round=%d rings=%d-%d rate=%.0f/s pool=%d\n",
		w.name, seed, seconds, traced, w.offers, w.ringMin, w.ringMax, w.rate, w.partyPool)
}

// hostSteal reads the box's cumulative stolen and total CPU time (in
// clock ticks) from the first line of /proc/stat.
func hostSteal() (steal, total float64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, v := range f[1:9] { // user .. steal; guest time is inside user
		x, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return 0, 0, false
		}
		total += x
		if i == 7 {
			steal = x
		}
	}
	return steal, total, true
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from, when the build
// saw one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+dirty"
		}
	}
	return rev + dirty
}
