package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// cpuBuckets are the per-layer CPU shares, in percent of all samples. A
// sample goes to the first rule that matches:
//
//  1. runtime_gc: a garbage-collector frame anywhere on the stack;
//  2. syscall: a system-call frame anywhere on the stack;
//  3. runtime_mem / runtime_other: a runtime leaf, split on whether the
//     stack allocates or copies memory (mallocgc, growslice, memmove, ...);
//  4. the layer of the nearest flashwear frame to the leaf, so a standard
//     library leaf such as math.Exp is charged to the package that called
//     it (nand, ftl, device, extfs, f2fs, workload, core, android, fleet,
//     fleetd, hostio, experiments; any other flashwear package is "other");
//  5. other.
//
// The three stack-inclusive buckets instead count every sample whose stack
// holds the named public function, so they overlap the buckets above.
var cpuBuckets = []string{
	"nand", "ftl", "device", "extfs", "f2fs", "workload", "core", "android",
	"fleet", "fleetd", "hostio", "experiments", "other", "syscall",
	"runtime_gc", "runtime_mem", "runtime_other",
}

var inclusiveBuckets = map[string]string{
	"nand.export_state": "flashwear/internal/nand.(*Chip).ExportState",
	"nand.import_state": "flashwear/internal/nand.(*Chip).ImportState",
	"extfs.mount":       "flashwear/internal/fs/extfs.Mount",
}

var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.gcStart", "runtime.markroot", "runtime.sweepone",
}

var memFrames = []string{
	"runtime.mallocgc", "runtime.growslice", "runtime.makeslice", "runtime.newobject",
	"runtime.memmove", "runtime.memclrNoHeapPointers", "runtime.typedmemmove",
	"runtime.typedslicecopy", "runtime.mapassign", "runtime.makemap",
}

var layerOf = map[string]string{
	"nand": "nand", "ftl": "ftl", "device": "device", "fs/extfs": "extfs",
	"fs/f2fs": "f2fs", "workload": "workload", "core": "core", "android": "android", "fleet": "fleet",
	"fleetd": "fleetd", "hostio": "hostio", "experiments": "experiments",
}

// profileShares CPU-profiles fn and returns each bucket's share of the
// samples in percent, with the sample count.
func profileShares(fn func() error) (map[string]float64, int64, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, 0, err
	}
	err := fn()
	pprof.StopCPUProfile()
	if err != nil {
		return nil, 0, err
	}
	stacks, err := decodeProfile(&buf)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range stacks {
		total += s.count
		counts[bucketOf(s.frames)] += s.count
		for name, fn := range inclusiveBuckets {
			if contains(s.frames, fn) {
				counts[name] += s.count
			}
		}
	}
	shares := map[string]float64{}
	for _, b := range cpuBuckets {
		shares[b] = 0
	}
	for name := range inclusiveBuckets {
		shares[name] = 0
	}
	if total == 0 {
		return shares, 0, nil
	}
	for b, n := range counts {
		shares[b] = float64(n) / float64(total) * 100
	}
	return shares, total, nil
}

func contains(frames []string, fn string) bool {
	for _, f := range frames {
		if f == fn {
			return true
		}
	}
	return false
}

func containsAny(frames, fns []string) bool {
	for _, fn := range fns {
		if contains(frames, fn) {
			return true
		}
	}
	return false
}

// pkgOf returns the import path of a symbol such as
// "flashwear/internal/nand.(*Chip).Program".
func pkgOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// bucketOf applies the rules documented on cpuBuckets; frames[0] is the leaf.
func bucketOf(frames []string) string {
	if len(frames) == 0 {
		return "other"
	}
	if containsAny(frames, gcFrames) {
		return "runtime_gc"
	}
	for _, f := range frames {
		switch pkgOf(f) {
		case "syscall", "internal/runtime/syscall", "runtime/internal/syscall", "internal/poll":
			return "syscall"
		}
	}
	leaf := pkgOf(frames[0])
	if leaf == "runtime" || strings.HasPrefix(leaf, "internal/runtime/") {
		if containsAny(frames, memFrames) {
			return "runtime_mem"
		}
		return "runtime_other"
	}
	for _, f := range frames {
		if p := pkgOf(f); strings.HasPrefix(p, "flashwear/") {
			if l, ok := layerOf[strings.TrimPrefix(p, "flashwear/internal/")]; ok {
				return l
			}
			return "other"
		}
	}
	return "other"
}

// stack is one profile sample: its function names, leaf first, inlined
// frames expanded, and its sample count.
type stack struct {
	frames []string
	count  int64
}

// decodeProfile reads the gzipped profile.proto that runtime/pprof writes,
// keeping only what the buckets need: samples, locations, functions and
// the string table.
func decodeProfile(r io.Reader) ([]stack, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location id -> function ids, leaf first
		fnName  = map[uint64]int64{}    // function id -> string index
		strs    []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			var vals []uint64
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendPacked(s.locs, wire, v, b)
				case 2:
					vals = appendPacked(vals, wire, v, b)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				s.count = int64(vals[0])
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFns[id] = fns
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(num int, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			fnName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		st := stack{count: s.count}
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if i := fnName[fn]; i >= 0 && i < int64(len(strs)) {
					st.frames = append(st.frames, strs[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// appendPacked appends a repeated varint field that may be packed (wire
// type 2) or not (wire type 0).
func appendPacked(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
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

var errProto = errors.New("malformed protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, varint value (wire type 0) or bytes (wire type 2).
func eachField(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := fn(num, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}
