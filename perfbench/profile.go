package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path"
	"slices"
	"strings"
)

// frame is one function on a sampled call stack.
type frame struct {
	fn   string // fully qualified function name
	file string // source file path
}

// moduleShares accumulates CPU samples per attribution bucket.
type moduleShares struct {
	samples map[string]int64
	total   int64
}

func newModuleShares() *moduleShares { return &moduleShares{samples: map[string]int64{}} }

// share returns the bucket's fraction of all samples (0 with no samples).
func (m *moduleShares) share(bucket string) float64 {
	if m.total == 0 {
		return 0
	}
	return float64(m.samples[bucket]) / float64(m.total)
}

// shareOf sums several buckets' fractions.
func (m *moduleShares) shareOf(buckets ...string) float64 {
	s := 0.0
	for _, b := range buckets {
		s += m.share(b)
	}
	return s
}

const internalPrefix = "paella/internal/"

// benchPkg prefixes the benchmark's own functions when it is built as a
// test binary; in the command they are main.*.
const benchPkg = "paella/perfbench."

// gcRoots are the runtime's background garbage-collection goroutines.
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge"}

// schedRoots are the goroutine scheduler's entry points on the system
// stack. A goroutine switch runs there with no caller frames, so its cost
// cannot be charged to the module that blocked.
var schedRoots = []string{"runtime.mcall", "runtime.park_m", "runtime.schedule"}

// attribute charges one sample to a bucket. stack[0] is the leaf. The
// innermost frame that belongs to a paella/internal module (or to the
// benchmark itself, package main) wins, so runtime frames are charged to
// the module that called into the runtime. A stack with no such frame
// goes to runtime.gc if it is a garbage-collection worker, to runtime.sched
// if it is the goroutine scheduler switching goroutines, else to other.
//
// Modules are named by their package; sim is split by source file into
// sim.queue (event queue and timer arena), sim.proc (coroutine processes),
// sim.world (the sharded engine and barrier) and sim.env (the step loop);
// gpu's block placement is gpu.place; rbtree is charged to sched, whose
// policies are its only users.
func attribute(stack []frame) string {
	for _, f := range stack {
		if strings.HasPrefix(f.fn, "main.") || strings.HasPrefix(f.fn, benchPkg) {
			return "bench"
		}
		rest, ok := strings.CutPrefix(f.fn, internalPrefix)
		if !ok {
			continue
		}
		mod := rest
		if i := strings.IndexAny(mod, "./"); i >= 0 {
			mod = mod[:i]
		}
		switch mod {
		case "sim":
			switch path.Base(f.file) {
			case "heap.go", "arena.go":
				return "sim.queue"
			case "proc.go", "mutex.go":
				return "sim.proc"
			case "world.go", "spec.go":
				return "sim.world"
			}
			return "sim.env"
		case "gpu":
			if strings.Contains(rest, "placeBlocks") {
				return "gpu.place"
			}
		case "rbtree":
			return "sched"
		}
		return mod
	}
	for _, f := range stack {
		if slices.Contains(gcRoots, f.fn) {
			return "runtime.gc"
		}
		if slices.Contains(schedRoots, f.fn) {
			return "runtime.sched"
		}
	}
	return "other"
}

// addProfile decodes one gzipped pprof CPU profile and adds its samples.
func (m *moduleShares) addProfile(data []byte) error {
	p, err := parseProfile(data)
	if err != nil {
		return err
	}
	for _, s := range p.samples {
		stack := make([]frame, 0, 16)
		for _, id := range s.locs {
			stack = append(stack, p.locs[id]...)
		}
		m.samples[attribute(stack)] += s.count
		m.total += s.count
	}
	return nil
}

// profile is the subset of a pprof profile the attribution needs.
type profile struct {
	samples []sample
	locs    map[uint64][]frame // location id → frames, innermost first
}

type sample struct {
	locs  []uint64
	count int64
}

// parseProfile decodes the protobuf written by runtime/pprof: samples
// (field 2: location ids, values), locations (field 4: id, lines), functions
// (field 5: id, name, file) and the string table (field 6). Sample value 0
// is the sample count.
func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	type line struct{ fnID uint64 }
	type fn struct{ name, file int64 }
	var (
		strs    []string
		samples []sample
		locLns  = map[uint64][]line{}
		fns     = map[uint64]fn{}
	)
	err := eachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2:
			var s sample
			var vals []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wire, v, b)
				case 2:
					vals = appendVarints(vals, wire, v, b)
				}
				return nil
			})
			if len(vals) > 0 {
				s.count = int64(vals[0])
			}
			samples = append(samples, s)
			return err
		case 4:
			var id uint64
			var lns []line
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					var l line
					err := eachField(b, func(num, _ int, v uint64, _ []byte) error {
						if num == 1 {
							l.fnID = v
						}
						return nil
					})
					lns = append(lns, l)
					return err
				}
				return nil
			})
			locLns[id] = lns
			return err
		case 5:
			var id uint64
			var f fn
			err := eachField(b, func(num, _ int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					f.name = int64(v)
				case 4:
					f.file = int64(v)
				}
				return nil
			})
			fns[id] = f
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	p := &profile{samples: samples, locs: make(map[uint64][]frame, len(locLns))}
	for id, lns := range locLns {
		frames := make([]frame, len(lns))
		for i, l := range lns {
			f := fns[l.fnID]
			frames[i] = frame{fn: str(f.name), file: str(f.file)}
		}
		p.locs[id] = frames
	}
	return p, nil
}

// appendVarints appends a repeated integer field's values: one varint when
// unpacked, a run of varints when packed (wire type 2).
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire != 2 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, varint value (wire 0) and bytes (wire 2).
func eachField(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}
