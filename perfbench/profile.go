package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// The traced run attributes CPU-profile samples to the simulator's layers by
// the source file of each sample's leaf frame. runtime/pprof writes the
// profile as gzipped profile.proto; the decoder below reads only the fields
// that attribution needs, since the module imports nothing outside the
// standard library.

// Profile buckets, each reported as the per-layer metric "<bucket>".
const (
	bucketGC    = "runtime.gc_s"
	bucketSched = "runtime.sched_s"
	bucketOther = "other.self_s"
)

// profileBuckets lists every bucket moduleSelfTimes can report, in report
// order.
var profileBuckets = []string{
	"gpu.core.self_s", "gpu.uvm.self_s", "gpu.parallel.self_s",
	"cache.self_s", "secmem.self_s", "detectors.self_s", "dram.self_s",
	"hostmem.self_s", "snapshot.self_s", "workload.self_s", "pool.self_s",
	"flatmap.self_s", "ringbuf.self_s",
	bucketGC, bucketSched, bucketOther,
}

// packageBuckets maps a simulator package to its bucket; internal/gpu is
// split by file below.
var packageBuckets = map[string]string{
	"cache":     "cache.self_s",
	"secmem":    "secmem.self_s",
	"metadata":  "secmem.self_s",
	"bmt":       "secmem.self_s",
	"detectors": "detectors.self_s",
	"dram":      "dram.self_s",
	"hostmem":   "hostmem.self_s",
	"snapshot":  "snapshot.self_s",
	"workload":  "workload.self_s",
	"pool":      "pool.self_s",
	"flatmap":   "flatmap.self_s",
	"ringbuf":   "ringbuf.self_s",
}

// gcFrames mark a sample as garbage-collector work wherever they appear on
// its stack; schedFrames mark scheduler, parking and futex work.
var gcFrames = map[string]bool{
	"runtime.gcBgMarkWorker": true, "runtime.gcAssistAlloc": true,
	"runtime.bgsweep": true, "runtime.bgscavenge": true,
	"runtime.gcStart": true, "runtime.markroot": true,
	"runtime.gcDrain": true, "runtime.gcMarkDone": true,
}

var schedFrames = map[string]bool{
	"runtime.schedule": true, "runtime.findRunnable": true,
	"runtime.park_m": true, "runtime.gopark": true, "runtime.goready": true,
	"runtime.futex": true, "runtime.futexsleep": true, "runtime.futexwakeup": true,
	"runtime.notesleep": true, "runtime.notewakeup": true,
	"runtime.semasleep": true, "runtime.semawakeup": true,
	"runtime.semacquire1": true, "runtime.semrelease1": true,
	"runtime.usleep": true, "runtime.osyield": true,
	"runtime.wakep": true, "runtime.startm": true, "runtime.stopm": true,
	"runtime.chansend": true, "runtime.chanrecv": true, "runtime.selectgo": true,
}

// frame is one function on a sample's stack.
type frame struct{ name, file string }

// bucketOf attributes one sample, given its stack leaf first.
func bucketOf(stack []frame) string {
	for _, f := range stack {
		if gcFrames[f.name] {
			return bucketGC
		}
	}
	for _, f := range stack {
		if schedFrames[f.name] {
			return bucketSched
		}
	}
	if len(stack) == 0 {
		return bucketOther
	}
	return fileBucket(stack[0].file)
}

// fileBucket maps a source file of the simulator to its bucket.
func fileBucket(file string) string {
	i := strings.LastIndex(file, "internal/")
	if i < 0 {
		return bucketOther
	}
	pkg, base, ok := strings.Cut(file[i+len("internal/"):], "/")
	if !ok || strings.Contains(base, "/") {
		return bucketOther
	}
	if pkg == "gpu" {
		switch path.Base(base) {
		case "uvm.go":
			return "gpu.uvm.self_s"
		case "parallel.go":
			return "gpu.parallel.self_s"
		}
		return "gpu.core.self_s"
	}
	if b, ok := packageBuckets[pkg]; ok {
		return b
	}
	return bucketOther
}

// moduleSelfTimes decodes a runtime/pprof CPU profile and returns the CPU
// seconds attributed to each bucket.
func moduleSelfTimes(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(profileBuckets))
	for _, b := range profileBuckets {
		out[b] = 0
	}
	// Value index of the CPU time: sample types are [samples/count,
	// cpu/nanoseconds].
	vi := -1
	for i, st := range p.sampleTypes {
		if p.str(st) == "cpu" {
			vi = i
		}
	}
	if vi < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	for _, s := range p.samples {
		if vi >= len(s.values) {
			continue
		}
		var stack []frame
		for _, id := range s.locations {
			for _, fid := range p.locations[id] {
				fn := p.functions[fid]
				stack = append(stack, frame{name: p.str(fn.name), file: p.str(fn.file)})
			}
		}
		out[bucketOf(stack)] += float64(s.values[vi]) / 1e9
	}
	return out, nil
}

type pbSample struct {
	locations []uint64
	values    []int64
}

type pbFunction struct{ name, file int64 }

type pbProfile struct {
	sampleTypes []int64 // string index of each ValueType's type
	samples     []pbSample
	// locations maps a location id to its function ids, innermost first.
	locations map[uint64][]uint64
	functions map[uint64]pbFunction
	strings   []string
}

func (p *pbProfile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// Field numbers of profile.proto.
const (
	fProfileSampleType = 1
	fProfileSample     = 2
	fProfileLocation   = 4
	fProfileFunction   = 5
	fProfileString     = 6
)

func decodeProfile(b []byte) (*pbProfile, error) {
	p := &pbProfile{locations: map[uint64][]uint64{}, functions: map[uint64]pbFunction{}}
	err := eachField(b, func(field int, wire int, v uint64, data []byte) error {
		if wire != 2 {
			return nil
		}
		switch field {
		case fProfileSampleType:
			var typ int64
			err := eachField(data, func(f, _ int, v uint64, _ []byte) error {
				if f == 1 {
					typ = int64(v)
				}
				return nil
			})
			p.sampleTypes = append(p.sampleTypes, typ)
			return err
		case fProfileSample:
			var s pbSample
			err := eachField(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					return appendVarints(&s.locations, w, v, d)
				case 2:
					var vals []uint64
					if err := appendVarints(&vals, w, v, d); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case fProfileLocation:
			var id uint64
			var fns []uint64
			err := eachField(data, func(f, w int, v uint64, d []byte) error {
				switch {
				case f == 1 && w == 0:
					id = v
				case f == 4 && w == 2:
					return eachField(d, func(lf, _ int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case fProfileFunction:
			var id uint64
			var fn pbFunction
			err := eachField(data, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					fn.name = int64(v)
				case 4:
					fn.file = int64(v)
				}
				return nil
			})
			p.functions[id] = fn
			return err
		case fProfileString:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// appendVarints appends one repeated-varint field occurrence, packed (wire
// type 2) or not (wire type 0).
func appendVarints(dst *[]uint64, wire int, v uint64, data []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}

// eachField walks one protobuf message, calling f with each field's number,
// wire type, and its varint value (wire 0) or payload (wire 2).
func eachField(b []byte, f func(field, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: truncated fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: truncated fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := f(field, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}
