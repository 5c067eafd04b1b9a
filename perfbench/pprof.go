package main

import (
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// A minimal reader for the gzipped protobuf CPU profiles runtime/pprof
// writes: just the fields self-time attribution needs (samples, their
// location stacks, each location's innermost function and file).

type pprofFunc struct {
	name, file string
}

// cpuProfile is a decoded CPU profile: each sample's stack, leaf
// first, how many profiling ticks hit it, and their CPU nanoseconds.
type cpuProfile struct {
	stacks [][]pprofFunc
	counts []int64
	nanos  []int64
}

// protobuf wire types used by profile.proto.
const (
	wireVarint = 0
	wireI64    = 1
	wireBytes  = 2
	wireI32    = 5
)

type pbField struct {
	num  int
	wire int
	u    uint64 // varint / fixed value
	b    []byte // length-delimited payload
}

// pbFields splits one message into its fields.
func pbFields(msg []byte) ([]pbField, error) {
	var out []pbField
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return nil, errors.New("pprof: bad field key")
		}
		msg = msg[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case wireVarint:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return nil, errors.New("pprof: bad varint")
			}
			f.u, msg = v, msg[n:]
		case wireI64:
			if len(msg) < 8 {
				return nil, errors.New("pprof: short fixed64")
			}
			f.u, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case wireI32:
			if len(msg) < 4 {
				return nil, errors.New("pprof: short fixed32")
			}
			f.u, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		case wireBytes:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return nil, errors.New("pprof: bad length")
			}
			f.b, msg = msg[n:n+int(l)], msg[n+int(l):]
		default:
			return nil, fmt.Errorf("pprof: unsupported wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

// pbInts reads a repeated integer field, packed or not.
func pbInts(f pbField) ([]uint64, error) {
	if f.wire != wireBytes {
		return []uint64{f.u}, nil
	}
	var out []uint64
	for b := f.b; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("pprof: bad packed varint")
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

// decodeCPUProfile reads a runtime/pprof CPU profile.
func decodeCPUProfile(r io.Reader) (*cpuProfile, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	top, err := pbFields(raw)
	if err != nil {
		return nil, err
	}
	var (
		strs        []string
		sampleTypes []uint64 // string index of each sample type
		samples     []pbField
		locLeaf     = map[uint64]uint64{} // location id -> innermost function id
		funcs       = map[uint64][2]uint64{}
	)
	for _, f := range top {
		switch f.num {
		case 1: // sample_type
			vt, err := pbFields(f.b)
			if err != nil {
				return nil, err
			}
			var typ uint64
			for _, g := range vt {
				if g.num == 1 {
					typ = g.u
				}
			}
			sampleTypes = append(sampleTypes, typ)
		case 2:
			samples = append(samples, f)
		case 4: // location
			lf, err := pbFields(f.b)
			if err != nil {
				return nil, err
			}
			var id, fn uint64
			seenLine := false
			for _, g := range lf {
				switch {
				case g.num == 1:
					id = g.u
				case g.num == 4 && !seenLine: // first line = innermost inlined frame
					seenLine = true
					lines, err := pbFields(g.b)
					if err != nil {
						return nil, err
					}
					for _, h := range lines {
						if h.num == 1 {
							fn = h.u
						}
					}
				}
			}
			locLeaf[id] = fn
		case 5: // function
			ff, err := pbFields(f.b)
			if err != nil {
				return nil, err
			}
			var id, name, file uint64
			for _, g := range ff {
				switch g.num {
				case 1:
					id = g.u
				case 2:
					name = g.u
				case 4:
					file = g.u
				}
			}
			funcs[id] = [2]uint64{name, file}
		case 6:
			strs = append(strs, string(f.b))
		}
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	cpuIdx, countIdx := -1, -1
	for i, t := range sampleTypes {
		switch str(t) {
		case "cpu":
			cpuIdx = i
		case "samples":
			countIdx = i
		}
	}
	if cpuIdx < 0 || countIdx < 0 {
		return nil, errors.New("pprof: no samples/cpu sample types (not a CPU profile)")
	}
	p := &cpuProfile{}
	for _, s := range samples {
		sf, err := pbFields(s.b)
		if err != nil {
			return nil, err
		}
		var locs, vals []uint64
		for _, g := range sf {
			switch g.num {
			case 1:
				v, err := pbInts(g)
				if err != nil {
					return nil, err
				}
				locs = append(locs, v...)
			case 2:
				v, err := pbInts(g)
				if err != nil {
					return nil, err
				}
				vals = append(vals, v...)
			}
		}
		if cpuIdx >= len(vals) || countIdx >= len(vals) {
			return nil, errors.New("pprof: sample without its values")
		}
		stack := make([]pprofFunc, 0, len(locs))
		for _, l := range locs {
			fn := funcs[locLeaf[l]]
			stack = append(stack, pprofFunc{name: str(fn[0]), file: str(fn[1])})
		}
		p.stacks = append(p.stacks, stack)
		p.counts = append(p.counts, int64(vals[countIdx]))
		p.nanos = append(p.nanos, int64(vals[cpuIdx]))
	}
	return p, nil
}

// funcPackage returns the import path of a Go symbol name, e.g.
// "protozoa/internal/core" for "protozoa/internal/core.(*System).Run".
// Type arguments of a generic instantiation may hold paths of their
// own, so the search stops at the first '['.
func funcPackage(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i]
	}
	slash := strings.LastIndex(name, "/")
	if dot := strings.Index(name[slash+1:], "."); dot >= 0 {
		return name[:slash+1+dot]
	}
	return name
}

// coreFiles maps internal/core source files to their core.* bucket;
// every other file of the package lands in core.other.
var coreFiles = map[string]string{
	"l1.go":       "core.l1",
	"dir.go":      "core.dir",
	"bloomdir.go": "core.dir",
	"msg.go":      "core.msg",
	"cpu.go":      "core.cpu",
	"system.go":   "core.system",
	"pdes.go":     "core.pdes",
}

// repoPackages maps the repo's packages to their buckets; other
// packages of the module land in repo.other.
var repoPackages = map[string]string{
	"protozoa/internal/workloads":  "workloads",
	"protozoa/internal/trace":      "trace",
	"protozoa/internal/engine":     "engine",
	"protozoa/internal/noc":        "noc",
	"protozoa/internal/cache":      "cache",
	"protozoa/internal/predictor":  "predictor",
	"protozoa/internal/directory":  "directory",
	"protozoa/internal/mem":        "mem",
	"protozoa/internal/stats":      "stats",
	"protozoa/internal/runner":     "runner",
	"protozoa/internal/harness":    "harness",
	"protozoa/internal/obs/attrib": "obs.attrib",
	"protozoa/internal/obs":        "obs.other",
	"main":                         "bench",
}

// isGCFrame reports whether a frame belongs to the collector: the
// background mark workers, mutator assists, write-barrier flushes and
// the sweeper/scavenger.
func isGCFrame(name string) bool {
	switch name {
	case "runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone", "runtime.markroot", "runtime.wbBufFlush":
		return true
	}
	return strings.HasPrefix(name, "runtime.gc")
}

func isRuntimePackage(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/")
}

// classify attributes one sample, by its stack (leaf first), to a
// bucket of selfLayers.
func classify(stack []pprofFunc) string {
	for _, f := range stack {
		if isGCFrame(f.name) {
			return "runtime.gc"
		}
	}
	if len(stack) == 0 {
		return "other"
	}
	leaf := stack[0]
	pkg := funcPackage(leaf.name)
	switch {
	case pkg == "protozoa/internal/core":
		if b, ok := coreFiles[path.Base(leaf.file)]; ok {
			return b
		}
		return "core.other"
	case pkg == "protozoa/internal/obs" && path.Base(leaf.file) == "latency.go":
		return "obs.latency"
	case isRuntimePackage(pkg):
		return "runtime.other"
	}
	if b, ok := repoPackages[pkg]; ok {
		return b
	}
	if pkg == "protozoa" || strings.HasPrefix(pkg, "protozoa/") {
		return "repo.other"
	}
	return "other"
}

// attribution is CPU-profile self time per bucket.
type attribution struct {
	nanos   map[string]int64
	total   int64
	samples int64
}

// attribute adds a profile's samples to the attribution.
func (a *attribution) add(p *cpuProfile) {
	if a.nanos == nil {
		a.nanos = make(map[string]int64)
	}
	for i, st := range p.stacks {
		a.nanos[classify(st)] += p.nanos[i]
		a.total += p.nanos[i]
		a.samples += p.counts[i]
	}
}

// reconcile checks that the buckets are exactly selfLayers and that
// their self times sum to the profile total.
func (a *attribution) reconcile() error {
	known := make(map[string]bool, len(selfLayers))
	for _, l := range selfLayers {
		known[l] = true
	}
	var sum int64
	for b, ns := range a.nanos {
		if !known[b] {
			return fmt.Errorf("profile bucket %q is not a reported layer", b)
		}
		sum += ns
	}
	if sum != a.total {
		return fmt.Errorf("layer self times sum to %d ns, profile total is %d ns", sum, a.total)
	}
	return nil
}
