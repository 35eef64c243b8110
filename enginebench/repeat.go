package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// repeatRuns runs the benchmark n times, each in a fresh process with its
// own seed, and prints for every metric the median, the quartiles, and the
// spread (quartile distance over median) next to the metric's bound in
// BENCHMARK.json, when the file is in the working directory.
func repeatRuns(name string, seed int64, seconds, trace, n int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	bounds := readBounds("BENCHMARK.json")
	values := map[string][]float64{}
	units := map[string]string{}
	failedShare := map[string]bool{}
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return fmt.Errorf("seed %d: last line is not a result: %w", s, err)
		}
		fmt.Printf("seed %d: correct=%v attempted=%d failed=%d\n", s, res.Correct, res.Attempted, res.Failed)
		failedShare[strconv.FormatFloat(float64(res.Failed)/float64(res.Attempted), 'g', -1, 64)] = true
		for k, m := range res.Metrics {
			values[k] = append(values[k], m.Value)
			units[k] = m.Unit
		}
	}
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("%-38s %14s %14s %14s %8s %6s\n", "metric", "median", "q1", "q3", "spread", "bound")
	for _, k := range names {
		v := values[k]
		sort.Float64s(v)
		q1, q3 := quartiles(v)
		med := median(append([]float64(nil), v...))
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		bound, verdict := "-", ""
		if b, ok := bounds[k]; ok {
			bound = strconv.FormatFloat(b, 'g', -1, 64)
			if k != "setup_s" && spread > b/3 {
				verdict = "  WIDE (over a third of the bound)"
			}
		}
		fmt.Printf("%-38s %14.6g %14.6g %14.6g %8.4f %6s %s%s\n", k, med, q1, q3, spread, bound, units[k], verdict)
	}
	if len(failedShare) > 1 {
		fmt.Println("the share of failed operations differs between seeds")
	}
	return nil
}

// quartiles returns the first and third quartile of sorted v by the
// "exclusive" method of Python's statistics.quantiles(v, n=4).
func quartiles(v []float64) (float64, float64) {
	n := len(v)
	if n < 2 {
		if n == 1 {
			return v[0], v[0]
		}
		return 0, 0
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (v[j-1]*float64(4-delta) + v[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// readBounds maps each end-to-end metric of BENCHMARK.json to its bound;
// it returns an empty map when the file is absent or unreadable.
func readBounds(path string) map[string]float64 {
	out := map[string]float64{}
	data, err := os.ReadFile(path)
	if err != nil {
		return out
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if json.Unmarshal(data, &spec) == nil {
		for _, m := range spec.EndToEnd {
			out[m.Name] = m.Bound
		}
	}
	return out
}
