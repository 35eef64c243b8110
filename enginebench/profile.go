package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuSamples is a CPU profile reduced to what attribution needs: each
// sample's stack of function names, leaf first, with its sample count.
type cpuSamples struct {
	stacks [][]string
	counts []int64
}

// parseProfile decodes the gzipped protobuf runtime/pprof writes
// (github.com/google/pprof/proto/profile.proto), keeping only samples,
// locations, functions and the string table.
func parseProfile(data []byte) (*cpuSamples, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location id → function ids, innermost first
		fnName  = map[uint64]int64{}    // function id → string index
		strs    []string
	)
	err = eachField(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s sample
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					for _, x := range appendVarints(nil, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := &cpuSamples{}
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		var stack []string
		for _, l := range s.locs {
			for _, f := range locFns[l] {
				if i := fnName[f]; i >= 0 && int(i) < len(strs) {
					stack = append(stack, strs[i])
				}
			}
		}
		out.stacks = append(out.stacks, stack)
		out.counts = append(out.counts, s.values[0])
	}
	return out, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			if err := fn(field, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
	}
	return nil
}

// appendVarints appends a repeated integer field's value: v itself when
// encoded unpacked (b == nil), or every varint in the packed bytes b.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// repoPrefix is the import path prefix of the repository's packages.
const repoPrefix = "github.com/go-atomicswap/atomicswap/"

// shortName strips the repository prefix and package directories from a
// function name: ".../internal/engine.(*Engine).clearRound" becomes
// "engine.(*Engine).clearRound"; standard library names keep their form.
func shortName(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiation
	}
	if i := strings.LastIndexByte(fn, '/'); i >= 0 {
		return fn[i+1:]
	}
	return fn
}

// moduleOf names the repository package a function belongs to, or ""
// for the standard library and the runtime. The benchmark's own main
// package is "bench".
func moduleOf(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return "bench"
	}
	if !strings.HasPrefix(fn, repoPrefix) {
		return ""
	}
	s := shortName(fn)
	if i := strings.IndexByte(s, '.'); i >= 0 {
		return s[:i]
	}
	return s
}

// attribution splits CPU samples by module and by named functions.
type attribution struct {
	total int64
	// module is each sample's innermost repository package: the package
	// whose code (or standard-library and runtime callees) was running.
	// Samples with no repository frame go to "runtime", those under the
	// benchmark's own code to "bench".
	module map[string]int64
	// inclusive counts samples with a function of the set on the stack.
	inclusive map[string]int64
}

// inclusiveSets name the cost centres counted inclusively. A set matches
// a sample when any frame's short name is in "on" and none is in "not".
var inclusiveSets = []struct {
	name    string
	on, not []string
}{
	// Clearing proper: book scan, partition, reservation and compaction,
	// without the swap setup and launch a deterministic round runs inline.
	{name: "engine.clearing", on: []string{"engine.(*Engine).clearRound"},
		not: []string{"core.Clear", "conc.Prepare", "engine.(*Engine).runSwap"}},
	{name: "core.partition", on: []string{"core.PartitionOffers"}},
	// Swap setup: spec, leaders, hashkey secrets and the run's wiring.
	{name: "core.setup", on: []string{"core.Clear", "conc.Prepare"}},
	{name: "runtime.morestack", on: []string{"runtime.morestack", "runtime.newstack"}},
	{name: "runtime.sprintf", on: []string{"fmt.Sprintf"}},
}

func attribute(p *cpuSamples) attribution {
	a := attribution{module: map[string]int64{}, inclusive: map[string]int64{}}
	for i, stack := range p.stacks {
		c := p.counts[i]
		a.total += c
		mod := "runtime"
		for _, fn := range stack {
			if m := moduleOf(fn); m != "" {
				mod = m
				break
			}
		}
		a.module[mod] += c
		names := make(map[string]bool, len(stack))
		for _, fn := range stack {
			names[shortName(fn)] = true
		}
	sets:
		for _, set := range inclusiveSets {
			for _, n := range set.not {
				if names[n] {
					continue sets
				}
			}
			for _, n := range set.on {
				if names[n] {
					a.inclusive[set.name] += c
					continue sets
				}
			}
		}
	}
	return a
}

func (a attribution) share(n int64) float64 {
	if a.total == 0 {
		return 0
	}
	return float64(n) / float64(a.total)
}

// merge adds b's samples to a.
func (a *attribution) merge(b attribution) {
	if a.module == nil {
		a.module, a.inclusive = map[string]int64{}, map[string]int64{}
	}
	a.total += b.total
	for k, v := range b.module {
		a.module[k] += v
	}
	for k, v := range b.inclusive {
		a.inclusive[k] += v
	}
}
