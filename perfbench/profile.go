package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A CPU profile as runtime/pprof writes it is a gzipped profile.proto
// message. decodeProfile reads the few fields the fold needs — samples,
// locations, functions and the string table — so the benchmark needs no
// module outside the standard library.

// stackSample is one profile sample: its CPU nanoseconds and its call
// stack as function names, leaf first, inlined frames expanded.
type stackSample struct {
	Nanos int64
	Stack []string
}

func decodeProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sampleMsg struct {
		locs   []uint64
		values []int64
	}
	var (
		samples []sampleMsg
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName  = map[uint64]int64{}    // function id -> string index
		strs    []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s sampleMsg
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wire, v, b)
				case 2:
					for _, x := range appendVarints(nil, wire, v, b) {
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
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num int, wire int, v uint64, _ []byte) error {
						if num == 1 {
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
			err := eachField(b, func(num int, wire int, v uint64, _ []byte) error {
				switch num {
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
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) < 2 {
			return nil, errors.New("profile: CPU sample without a nanoseconds value")
		}
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if i := fnName[fn]; i >= 0 && int(i) < len(strs) {
					stack = append(stack, strs[i])
				}
			}
		}
		out = append(out, stackSample{Nanos: s.values[1], Stack: stack})
	}
	return out, nil
}

// eachField walks the top-level fields of one protobuf message, passing
// varint values in v and length-delimited payloads in b.
func eachField(msg []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
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

// Layers of the program, named after its modules. simhw, simio, simgpu,
// xla and the other modeling packages cost about 1% of wall time, so they
// fold into core. Utility packages the kernels call into (sequences,
// record streams, metering, the worker pool) are transparent: their time
// goes to the first owning caller up the stack.
var layerOfPackage = map[string]string{
	"hmmer":      "hmmer",
	"msa":        "msa",
	"serve":      "serve",
	"cache":      "cache",
	"cachedisk":  "cache",
	"core":       "core",
	"simhw":      "core",
	"simio":      "core",
	"simgpu":     "core",
	"xla":        "core",
	"memest":     "core",
	"platform":   "core",
	"resilience": "core",
	"batch":      "core",
	"qos":        "core",
	"inputs":     "core",
}

var transparentPackages = map[string]bool{
	"seq": true, "seqdb": true, "metering": true, "parallel": true,
	"rng": true, "stats": true,
}

// Layer names reported by the fold. Samples with no program frame — the
// scheduler, background GC, syscalls — are the Go runtime's; samples in
// the benchmark's own generator and poller are "bench".
var foldLayers = []string{"core", "msa", "hmmer", "serve", "cache", "go.runtime", "bench"}

// hmmerSymbols classifies an hmmer function by name. Rules apply in order;
// the first match wins. The classes are the kernels the paper's Table IV
// names (Forward, banded Viterbi, traceback, MSV/SSV filter, seed filter);
// "other" lists the scan driver and record plumbing by name. A function
// that matches nothing is unmapped: the fold self-test fails if one of
// them holds more than 1% of CPU.
var hmmerSymbols = []struct {
	class string
	match []string
}{
	{"traceback", []string{"ViterbiAlign", "raceback", "GappedAlignment"}},
	{"forward", []string{"orward", "logSumExp"}},
	{"msv", []string{"msv", "MSV", "ssv", "SSV", "SWAR", "swar", "quant", "satAdd", "satSub", "max8", "anyGE8", "thresholdByte"}},
	{"viterbi", []string{"Viterbi", "BandRow", "countBandCells", "recordBand", "bandScoreFloor", "dpRows"}},
	{"seed", []string{"seed", "Seed", "candidates", "roll"}},
	{"other", []string{"scanRecord", "scanDB", "ScanRecords", "Search", "scanState", "scanLongTarget", "planWindows", "Buffer", "MergeResults", "BuildHitAlignment", "Profile", "BuildFrom", "ScanState", "EValue", "BitScore", "cloneSeq", "SliceSource", "Matrix", "maxf", "minInt", "Workspace", "scanWS", "dedupSeen"}},
}

var hmmerClasses = []string{"forward", "viterbi", "traceback", "msv", "seed", "other"}

func hmmerClass(fn string) string {
	fn = strings.TrimPrefix(fn, "afsysbench/internal/hmmer.")
	for _, r := range hmmerSymbols {
		for _, m := range r.match {
			if strings.Contains(fn, m) {
				return r.class
			}
		}
	}
	return "unmapped"
}

// modulePackage returns the package of a program function name, "" for
// anything outside the module. Names look like
// "afsysbench/internal/hmmer.(*scanState).scanRecord" or "main.run".
func modulePackage(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return "main"
	}
	rest, ok := strings.CutPrefix(fn, "afsysbench/internal/")
	if !ok {
		return ""
	}
	if i := strings.IndexByte(rest, '.'); i >= 0 {
		return rest[:i]
	}
	return rest
}

// fold accumulates CPU time per layer and per hmmer function, and the
// garbage collector's share wherever it runs (background marking and
// sweeping, and assists charged to allocating goroutines).
type fold struct {
	Total   int64
	GC      int64
	Layer   map[string]int64
	HmmerFn map[string]int64
}

func newFold() *fold {
	return &fold{Layer: map[string]int64{}, HmmerFn: map[string]int64{}}
}

// add attributes each sample to the first owning frame from the leaf up.
func (f *fold) add(samples []stackSample) {
	for _, s := range samples {
		f.Total += s.Nanos
		if isGC(s.Stack) {
			f.GC += s.Nanos
		}
		layer, fn := "go.runtime", ""
		for _, frame := range s.Stack {
			pkg := modulePackage(frame)
			if pkg == "" || transparentPackages[pkg] {
				continue
			}
			if pkg == "main" {
				layer = "bench"
				break
			}
			if l, ok := layerOfPackage[pkg]; ok {
				layer = l
				if l == "hmmer" {
					fn = frame
				}
				break
			}
		}
		f.Layer[layer] += s.Nanos
		if fn != "" {
			f.HmmerFn[fn] += s.Nanos
		}
	}
}

func isGC(stack []string) bool {
	for _, frame := range stack {
		if strings.HasPrefix(frame, "runtime.gc") || strings.HasPrefix(frame, "runtime.bgsweep") || strings.HasPrefix(frame, "runtime.bgscavenge") {
			return true
		}
	}
	return false
}

func (f *fold) share(ns int64) float64 {
	if f.Total == 0 {
		return 0
	}
	return float64(ns) / float64(f.Total)
}

// hmmerShares sums the hmmer CPU share per kernel class.
func (f *fold) hmmerShares() map[string]float64 {
	out := map[string]float64{}
	for fn, ns := range f.HmmerFn {
		out[hmmerClass(fn)] += f.share(ns)
	}
	return out
}

// unmapped lists hmmer functions above minShare of CPU that no rule of
// hmmerSymbols classifies.
func (f *fold) unmapped(minShare float64) []string {
	var out []string
	for fn, ns := range f.HmmerFn {
		if hmmerClass(fn) == "unmapped" && f.share(ns) > minShare {
			out = append(out, fmt.Sprintf("%s (%.1f%%)", fn, 100*f.share(ns)))
		}
	}
	return out
}
