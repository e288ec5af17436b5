package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path"
	"runtime/pprof"
	"strings"
)

// profiler takes a runtime/pprof CPU profile of each traced pass.
type profiler struct {
	bufs []*bytes.Buffer
	cur  *bytes.Buffer
}

func (p *profiler) start() {
	p.cur = &bytes.Buffer{}
	if err := pprof.StartCPUProfile(p.cur); err != nil {
		fmt.Fprintf(os.Stderr, "hostbench: cpu profile: %v\n", err)
		p.cur = nil
	}
}

func (p *profiler) stop() {
	if p.cur == nil {
		return
	}
	pprof.StopCPUProfile()
	p.bufs = append(p.bufs, p.cur)
	p.cur = nil
}

// profileShares is sampled CPU time charged to share buckets (the
// innermost frame in module repro) and to runtime leaf classes.
type profileShares struct {
	total float64
	share map[string]float64
	leaf  map[string]float64
}

func (p *profiler) shares() *profileShares {
	ps := &profileShares{share: map[string]float64{}, leaf: map[string]float64{}}
	for _, b := range p.bufs {
		samples, err := decodeProfile(b.Bytes())
		if err != nil {
			fmt.Fprintf(os.Stderr, "hostbench: decode cpu profile: %v\n", err)
			continue
		}
		for _, s := range samples {
			ps.total += s.weight
			ps.share[shareOf(s.frames)] += s.weight
			if c := runtimeLeafClass(s.frames); c != "" {
				ps.leaf[c] += s.weight
			}
		}
	}
	return ps
}

// shareBuckets are the share.<bucket> metrics, in report order. Every
// sample lands in exactly one, so they sum to 100%.
var shareBuckets = []string{
	"core.exec", "core.locks", "core.sched", "core.ipc", "core.parallel", "core.observe",
	"checkpoint", "clock", "cpu", "dev", "experiments", "fs", "mem", "mmu", "netsrv",
	"obj", "pager", "prog", "stats", "sys", "workload", "bench", "other", "none",
}

// coreFiles splits internal/core by source file.
var coreFiles = map[string]string{
	"locks.go":       "core.locks",
	"schedops.go":    "core.sched",
	"clockheap.go":   "core.sched",
	"ipc_support.go": "core.ipc",
	"ipcglue.go":     "core.ipc",
	"parallel.go":    "core.parallel",
	"metrics.go":     "core.observe",
	"profile.go":     "core.observe",
	"span.go":        "core.observe",
}

// packageBuckets folds whole packages into a core bucket.
var packageBuckets = map[string]string{
	"sched":   "core.sched",
	"ipc":     "core.ipc",
	"metrics": "core.observe",
	"profile": "core.observe",
	"trace":   "core.observe",
	"observe": "core.observe",
}

type frame struct{ fn, file string }

// shareOf charges a stack (leaf first) to the innermost frame in module
// repro; a stack with none goes to "none".
func shareOf(frames []frame) string {
	for _, f := range frames {
		pkg := packageOf(f.fn)
		if pkg != "repro" && !strings.HasPrefix(pkg, "repro/") {
			continue
		}
		switch {
		case pkg == "repro/internal/core":
			if b, ok := coreFiles[path.Base(f.file)]; ok {
				return b
			}
			return "core.exec"
		case strings.HasPrefix(pkg, "repro/hostbench"):
			return "bench"
		case strings.HasPrefix(pkg, "repro/internal/"):
			name := strings.TrimPrefix(pkg, "repro/internal/")
			if b, ok := packageBuckets[name]; ok {
				return b
			}
			for _, b := range shareBuckets {
				if b == name {
					return b
				}
			}
		}
		return "other"
	}
	return "none"
}

// packageOf returns the import path of a pprof function name such as
// "repro/internal/core.(*Kernel).lockAcquireSlot".
func packageOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// leafClasses are the leaf.runtime.<class> metrics.
var leafClasses = []string{"sched", "memory", "gc"}

// runtimeLeafClass classifies a sample whose leaf frame is in the Go
// runtime: garbage collection (any frame of a GC worker or assist),
// memory (allocation, clearing, copying) or scheduling (channels,
// parking, locks, futexes). Other runtime leaves return "other"; a
// non-runtime leaf returns "".
func runtimeLeafClass(frames []frame) string {
	if len(frames) == 0 || packageOf(frames[0].fn) != "runtime" {
		return ""
	}
	for _, f := range frames {
		for _, g := range []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
			"runtime.bgscavenge", "runtime.gcStart", "runtime.GC", "runtime.markroot", "runtime.gcDrain"} {
			if strings.HasPrefix(f.fn, g) {
				return "gc"
			}
		}
	}
	leaf := frames[0].fn
	for _, m := range []string{"malloc", "memclr", "memmove", "growslice", "makeslice", "newobject",
		"mheap", "mcache", "mcentral", "mspan", "nextFree", "newarray", "heapBits", "sweep", "bulkBarrier",
		"typedmemmove", "typedslicecopy", "wbBuf", "makemap", "mapassign", "rawstring", "concatstring"} {
		if strings.Contains(leaf, m) {
			return "memory"
		}
	}
	for _, s := range []string{"chan", "park", "ready", "schedule", "findRunnable", "futex", "lock",
		"sema", "select", "note", "mcall", "gogo", "goexit", "runq", "steal", "wake", "startm",
		"stopm", "usleep", "osyield", "procyield", "execute", "gosched", "casgstatus", "acquirep", "releasep"} {
		if strings.Contains(leaf, s) {
			return "sched"
		}
	}
	return "other"
}

type sample struct {
	frames []frame // leaf first, inlined frames expanded
	weight float64 // CPU nanoseconds (sample count when absent)
}

// decodeProfile parses a gzipped pprof protobuf into resolved stacks.
// Only the fields the share tables need are read. internal/profile's
// DecodePprof is not enough here: it keeps one function per location,
// dropping inlined frames, and no file names, which split internal/core.
func decodeProfile(data []byte) ([]sample, error) {
	gz, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(gz)
	if err != nil {
		return nil, err
	}
	type rawSample struct{ locs, vals []uint64 }
	type fn struct{ name, file uint64 }
	var (
		strs    []string
		samples []rawSample
		locs    = map[uint64][]uint64{} // location -> function ids, innermost first
		fns     = map[uint64]fn{}
	)
	err = eachField(raw, func(f int, v uint64, b []byte) error {
		switch f {
		case 6: // string_table
			strs = append(strs, string(b))
		case 2: // sample
			var s rawSample
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					return appendVarints(&s.locs, v, b)
				case 2:
					return appendVarints(&s.vals, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var ids []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							ids = append(ids, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = ids
			return err
		case 5: // function
			var id uint64
			var x fn
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					x.name = v
				case 4:
					x.file = v
				}
				return nil
			})
			fns[id] = x
			return err
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	out := make([]sample, 0, len(samples))
	for _, rs := range samples {
		if len(rs.vals) == 0 {
			continue
		}
		s := sample{weight: float64(rs.vals[len(rs.vals)-1])}
		for _, l := range rs.locs {
			for _, id := range locs[l] {
				f := fns[id]
				s.frames = append(s.frames, frame{fn: str(f.name), file: str(f.file)})
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// eachField walks the fields of one protobuf message, passing varint
// values as v and length-delimited payloads as b.
func eachField(msg []byte, visit func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad protobuf key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad protobuf varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad protobuf length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			msg = msg[4:]
			continue
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := visit(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed (b) or not (v).
func appendVarints(dst *[]uint64, v uint64, b []byte) error {
	if b == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
