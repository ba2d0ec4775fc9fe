package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The traced run's CPU profile is read here rather than with go tool
// pprof: the profile.proto subset below (samples, locations with their
// inline lines, functions, string table) is all the layer ledger needs.

// cpuProfile is a decoded runtime/pprof CPU profile: each sample's stack
// as function names, leaf first, with the CPU time it stands for.
type cpuProfile struct {
	samples []cpuSample
}

type cpuSample struct {
	stack []string // leaf first, inlined frames expanded
	ns    int64
}

// bucketProfile sums sample time per layer and returns each layer's share
// in percent, over cpuLayers plus "runtime.gc".
func bucketProfile(p *cpuProfile) map[string]float64 {
	out := map[string]float64{"runtime.gc": 0}
	for _, l := range cpuLayers {
		out[l] = 0
	}
	var total float64
	for _, s := range p.samples {
		out[sampleLayer(s.stack)] += float64(s.ns)
		total += float64(s.ns)
	}
	if total > 0 {
		for k, v := range out {
			out[k] = 100 * v / total
		}
	}
	return out
}

// internalPrefix marks the program's own packages.
const internalPrefix = "slingshot/internal/"

// sampleLayer attributes one stack to its innermost slingshot/internal
// frame's layer, so standard-library work (math, sort, runtime.mallocgc)
// counts toward the module that called it. A frame of this driver nearer
// the leaf wins (the span wrappers sit between the program's layers).
// Stacks with neither are background GC or other runtime time.
func sampleLayer(stack []string) string {
	for _, fn := range stack {
		if strings.HasPrefix(fn, "main.") {
			return "bench"
		}
		if strings.HasPrefix(fn, internalPrefix) {
			mod := fn[len(internalPrefix):]
			if i := strings.IndexAny(mod, "./"); i >= 0 {
				mod = mod[:i]
			}
			return moduleLayer(mod)
		}
	}
	for _, fn := range stack {
		if isGCFrame(fn) {
			return "runtime.gc"
		}
	}
	return "other"
}

// moduleLayer folds an internal module into its reported layer: the
// layer groups of the benchmark's per-layer ledger (README.md).
func moduleLayer(mod string) string {
	switch mod {
	case "ue", "traffic":
		return "ue"
	case "orion", "fapi":
		return "orion"
	case "shard", "par":
		return "shard"
	case "l2", "harq", "rlc":
		return "l2"
	case "fec", "dsp", "fronthaul", "sim", "mem", "switchsim", "phy", "ru", "netmodel", "chaos":
		return mod
	}
	return "core"
}

// isGCFrame matches the runtime's background collector goroutines: mark
// workers, the sweeper and the scavenger.
func isGCFrame(fn string) bool {
	switch fn {
	case "runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcStart",
		"runtime.gcMarkDone", "runtime.gcMarkTermination":
		return true
	}
	return false
}

// parseCPUProfile decodes a gzipped profile.proto as runtime/pprof writes
// it, keeping the second sample value (CPU nanoseconds).
func parseCPUProfile(data []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id → function ids, leaf first
		funcNames = map[uint64]int64{}    // function id → string index
		strtab    []string
	)
	err = pbFields(raw, func(field int, v uint64, sub []byte) error {
		switch field {
		case 2: // sample
			var s rawSample
			err := pbFields(sub, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					return pbUints(v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return pbUints(v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbFields(sub, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return pbFields(b, func(lf int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := pbFields(sub, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strtab = append(strtab, string(sub))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	p := &cpuProfile{}
	for _, s := range samples {
		if len(s.values) < 2 {
			return nil, errors.New("profile: sample without a CPU-time value")
		}
		cs := cpuSample{ns: s.values[1]}
		for _, loc := range s.locs {
			for _, fid := range locFuncs[loc] {
				if idx := funcNames[fid]; idx >= 0 && int(idx) < len(strtab) {
					cs.stack = append(cs.stack, strtab[idx])
				}
			}
		}
		p.samples = append(p.samples, cs)
	}
	return p, nil
}

// pbFields walks one protobuf message, calling fn with each field's number
// and either its varint value or its length-delimited bytes. Fixed-width
// fields are skipped; profile.proto uses none the ledger reads.
func pbFields(b []byte, fn func(field int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n == 0 {
			return errors.New("truncated field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := pbVarint(b)
			if n == 0 {
				return errors.New("truncated varint")
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("truncated fixed64")
			}
			b = b[8:]
		case 2:
			l, n := pbVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errors.New("truncated bytes field")
			}
			sub := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, 0, sub); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errors.New("truncated fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

// pbUints reads a repeated varint field in either encoding: one unpacked
// value v (sub == nil) or a packed run in sub.
func pbUints(v uint64, sub []byte, fn func(uint64)) error {
	if sub == nil {
		fn(v)
		return nil
	}
	for len(sub) > 0 {
		x, n := pbVarint(sub)
		if n == 0 {
			return errors.New("truncated packed varint")
		}
		fn(x)
		sub = sub[n:]
	}
	return nil
}

// pbVarint decodes one base-128 varint, returning n == 0 when b ends
// before the varint does.
func pbVarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
