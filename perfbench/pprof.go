package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The CPU profile of the replay is split by the package of each
// sample's leaf frame into the event loop's parts. Samples with an
// allocator or collector frame anywhere on their stack count as
// runtime_alloc, whatever their leaf.
var cpuBucketNames = []string{"sim", "eventsim", "policy", "runtime_alloc", "other"}

var allocFrames = map[string]bool{
	"runtime.mallocgc":       true,
	"runtime.newobject":      true,
	"runtime.makeslice":      true,
	"runtime.growslice":      true,
	"runtime.gcBgMarkWorker": true,
	"runtime.gcAssistAlloc":  true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
}

func bucketOf(stack []string) string {
	for _, fn := range stack {
		if allocFrames[fn] {
			return "runtime_alloc"
		}
	}
	switch pkgOf(stack[0]) {
	case "repro/internal/sim":
		return "sim"
	case "repro/internal/eventsim":
		return "eventsim"
	case "repro/internal/mac", "repro/internal/core":
		return "policy"
	}
	return "other"
}

// pkgOf returns the import path of a pprof function name such as
// "repro/internal/sim.(*Scheduler).Pop".
func pkgOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/') + 1
	if dot := strings.IndexByte(fn[slash:], '.'); dot >= 0 {
		return fn[:slash+dot]
	}
	return fn
}

// cpuShares decodes a gzipped pprof CPU profile and returns each
// bucket's share of the sampled CPU time.
func cpuShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	byBucket := make(map[string]int64)
	var total int64
	for _, s := range p.samples {
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				stack = append(stack, p.strings[p.funcNames[fn]])
			}
		}
		if len(stack) == 0 || len(s.values) == 0 {
			continue
		}
		v := s.values[len(s.values)-1] // CPU nanoseconds
		byBucket[bucketOf(stack)] += v
		total += v
	}
	out := make(map[string]float64, len(cpuBucketNames))
	for _, b := range cpuBucketNames {
		if total > 0 {
			out[b] = float64(byBucket[b]) / float64(total)
		} else {
			out[b] = 0
		}
	}
	return out, nil
}

// profile holds the parts of a pprof profile.proto the buckets need.
type profile struct {
	samples   []sample
	locFuncs  map[uint64][]uint64 // location ID -> function IDs, leaf first
	funcNames map[uint64]uint64   // function ID -> string table index
	strings   []string
}

type sample struct {
	locs   []uint64 // leaf first
	values []int64
}

// decodeProfile reads the protobuf wire format of profile.proto:
// Profile{2: sample, 4: location, 5: function, 6: string_table},
// Sample{1: location_id, 2: value}, Location{1: id, 4: line},
// Line{1: function_id}, Function{1: id, 2: name}.
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]uint64{}}
	err := eachField(b, func(num int, v uint64, msg []byte) error {
		switch num {
		case 2:
			var s sample
			err := eachField(msg, func(num int, v uint64, packed []byte) error {
				switch num {
				case 1:
					return eachVarint(v, packed, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return eachVarint(v, packed, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(msg, func(num int, v uint64, line []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return eachField(line, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5:
			var id, name uint64
			err := eachField(msg, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			p.funcNames[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	return p, err
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks one message's fields. Varint fields pass their value;
// length-delimited fields pass their bytes; fixed-width fields are
// skipped.
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n == 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			if v, n = uvarint(b); n == 0 {
				return errTruncated
			}
			b = b[n:]
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(b) < w {
				return errTruncated
			}
			b = b[w:]
			continue
		case 2:
			l, n := uvarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// eachVarint yields a repeated integer field in either encoding: one
// unpacked varint (packed == nil) or a packed run.
func eachVarint(v uint64, packed []byte, fn func(uint64)) error {
	if packed == nil {
		fn(v)
		return nil
	}
	for len(packed) > 0 {
		x, n := uvarint(packed)
		if n == 0 {
			return errTruncated
		}
		fn(x)
		packed = packed[n:]
	}
	return nil
}

// uvarint decodes a varint, returning n == 0 on truncated input.
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
