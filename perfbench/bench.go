package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"afsysbench/internal/core"
	"afsysbench/internal/stats"
)

// metricSpec names one reported metric and its unit. The lists below and
// the end_to_end / per_layer lists of BENCHMARK.json are the same (a
// self-test checks it).
type metricSpec struct {
	Name string
	Unit string
}

// Every workload reports every end-to-end metric (untraced run) and every
// per-layer metric (traced run). A layer a workload does not load reports
// zero. What each metric means per workload is in README.md.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"pass_s", "s"},
	{"drain_rps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"slo_met_share", "share"},
	{"ok_share", "share"},
	{"peak_rss_mb", "MB"},
}

var perLayer = func() []metricSpec {
	var m []metricSpec
	for _, s := range pipelineSamples {
		m = append(m, metricSpec{"core.run_ms." + s, "ms"})
	}
	m = append(m,
		metricSpec{"core.msa_phase_ms", "ms"},
		metricSpec{"core.inference_phase_ms", "ms"},
		metricSpec{"msa.chain_search_ms", "ms"},
		metricSpec{"msa.phase_other_ms", "ms"},
	)
	for _, c := range hmmerClasses {
		m = append(m, metricSpec{"hmmer." + c + ".cpu_share", "share"})
	}
	m = append(m,
		metricSpec{"hmmer.unmapped.cpu_share", "share"},
		metricSpec{"hmmer.candidates", "count/op"},
		metricSpec{"hmmer.hits", "count/op"},
		metricSpec{"hmmer.hit_ratio", "share"},
		metricSpec{"hmmer.cells_dp", "count/op"},
		metricSpec{"serve.admit_us", "us"},
		metricSpec{"serve.queue_wait_ms.p50", "ms"},
		metricSpec{"serve.queue_wait_ms.p95", "ms"},
		metricSpec{"serve.msa_stage_ms.p50", "ms"},
		metricSpec{"serve.msa_stage_ms.p95", "ms"},
		metricSpec{"serve.handoff_wait_ms", "ms"},
		metricSpec{"serve.inference_stage_ms", "ms"},
		metricSpec{"serve.chains_fresh", "count/op"},
		metricSpec{"serve.chains_mem", "count/op"},
		metricSpec{"cache.hit_ratio", "share"},
		metricSpec{"cache.misses", "count"},
		metricSpec{"cache.evictions", "count"},
		metricSpec{"go.alloc_mb_per_op", "MB/op"},
		metricSpec{"go.gc.cpu_share", "share"},
		metricSpec{"go.heap_growth_kb_per_op", "kB/op"},
		metricSpec{"gen.late_p95_ms", "ms"},
		metricSpec{"gen.late_max_ms", "ms"},
		metricSpec{"trace.overhead_pct", "%"},
	)
	for _, l := range foldLayers {
		m = append(m, metricSpec{l + ".cpu_share", "share"})
	}
	return m
}()

// setupRepeats is how many times a run builds its set-up; setup_s is the
// median, so one slow build does not move it.
const setupRepeats = 5

// span is one stage of one operation, in microseconds from the start of
// the run.
type span struct {
	Op    string `json:"op"`
	Stage string `json:"stage"`
	Start int64  `json:"start_us"`
	End   int64  `json:"end_us"`
}

// bench is the state of one run: its settings, the operation ledger, the
// metrics gathered so far and, in a traced run, the spans and the folded
// CPU profile.
type bench struct {
	workload string
	seed     uint64
	seconds  time.Duration
	traced   bool
	golden   goldens
	log      io.Writer
	start    time.Time

	attempted int
	failed    int
	wrong     int
	problems  []string
	metrics   map[string]float64

	spanMu sync.Mutex
	spans  []span
	fold   *fold
	prof   bytes.Buffer

	memOps                 int
	allocBytes, heapGrowth float64
}

func (b *bench) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	b.metrics[name] = v
}

// problem records a failed self-check: the run reports correct=false.
func (b *bench) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	b.problems = append(b.problems, msg)
	fmt.Fprintln(b.log, "perfbench: check failed:", msg)
}

// verify checks one result against its golden digest; a mismatch is a
// failed, wrong operation.
func (b *bench) verify(pr *core.PipelineResult, threads int, warm bool) bool {
	ok, err := b.golden.check(pr, threads, warm)
	if err != nil {
		b.problem("%v", err)
		return false
	}
	if !ok {
		b.wrong++
		fmt.Fprintf(b.log, "perfbench: digest mismatch for %s (threads=%d warm=%v)\n", pr.Sample, threads, warm)
	}
	return ok
}

func (b *bench) us(t time.Time) int64 { return t.Sub(b.start).Microseconds() }

func (b *bench) addSpan(op, stage string, start, end time.Time) {
	b.spanMu.Lock()
	b.spans = append(b.spans, span{Op: op, Stage: stage, Start: b.us(start), End: b.us(end)})
	b.spanMu.Unlock()
}

// profileStart and profileStop bracket a traced segment with a CPU
// profile; each segment's samples are folded as it ends.
func (b *bench) profileStart() error {
	b.prof.Reset()
	return pprof.StartCPUProfile(&b.prof)
}

func (b *bench) profileStop() error {
	pprof.StopCPUProfile()
	samples, err := decodeProfile(b.prof.Bytes())
	if err != nil {
		return err
	}
	b.fold.add(samples)
	return nil
}

// reportFold sets the CPU-share metrics from the folded profile and checks
// that the symbol table covers it.
func (b *bench) reportFold() {
	f := b.fold
	for _, l := range foldLayers {
		b.set(l+".cpu_share", f.share(f.Layer[l]))
	}
	shares := f.hmmerShares()
	for _, c := range hmmerClasses {
		b.set("hmmer."+c+".cpu_share", shares[c])
	}
	b.set("hmmer.unmapped.cpu_share", shares["unmapped"])
	b.set("go.gc.cpu_share", f.share(f.GC))
	if u := f.unmapped(0.01); len(u) > 0 {
		fmt.Fprintln(b.log, "perfbench: warning: hmmer symbols above 1% of CPU missing from the symbol table:", strings.Join(u, ", "))
	}
}

// memSnap is a heap snapshot taken between timed segments.
type memSnap struct {
	totalAlloc uint64
	liveHeap   uint64
}

// readMem forces a collection so liveHeap is the retained heap; call it
// only outside timed and profiled segments.
func readMem() memSnap {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{totalAlloc: ms.TotalAlloc, liveHeap: ms.HeapAlloc}
}

// addMem accumulates the allocation and retained-heap growth of one
// traced segment of ops operations.
func (b *bench) addMem(before, after memSnap, ops int) {
	b.memOps += ops
	b.allocBytes += float64(after.totalAlloc - before.totalAlloc)
	b.heapGrowth += float64(after.liveHeap) - float64(before.liveHeap)
}

// reportMem sets the per-operation allocation and retained-heap growth
// over the traced segments.
func (b *bench) reportMem() {
	if b.memOps == 0 {
		return
	}
	b.set("go.alloc_mb_per_op", b.allocBytes/1e6/float64(b.memOps))
	b.set("go.heap_growth_kb_per_op", b.heapGrowth/1e3/float64(b.memOps))
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak rss: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak rss: no VmHWM in /proc/self/status")
}

func median(xs []float64) float64 { return stats.Percentile(xs, 50) }

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// tail returns the p-th percentile of xs and how many samples lie beyond
// it. The open-loop latency p95 must have at least minBeyond samples past
// it, or the run fails its correctness check.
func tail(xs []float64, p float64) (value float64, beyond int) {
	value = stats.Percentile(xs, p)
	for _, x := range xs {
		if x > value {
			beyond++
		}
	}
	return value, beyond
}

const minBeyond = 10

// writeSpans writes the run's spans as JSON lines under dir.
func (b *bench) writeSpans(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", b.workload, b.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	sort.SliceStable(b.spans, func(i, j int) bool { return b.spans[i].Start < b.spans[j].Start })
	for _, s := range b.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", fmt.Errorf("spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	return path, nil
}

// metricValue is one entry of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result assembles the result line from the metrics of this run's mode,
// printing each metric by name with its unit above it.
func (b *bench) result(w io.Writer) (resultLine, error) {
	specs := endToEnd
	if b.traced {
		specs = perLayer
	}
	r := resultLine{
		Correct:   len(b.problems) == 0 && b.wrong == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, s := range specs {
		v, ok := b.metrics[s.Name]
		if !ok {
			return r, fmt.Errorf("metric %s was not measured", s.Name)
		}
		r.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
		fmt.Fprintf(w, "%-30s %14.6g %s\n", s.Name, v, s.Unit)
	}
	fmt.Fprintf(w, "%-30s %14d (failed %d, wrong digests %d, failed_share %.4g)\n", "operations", b.attempted, b.failed, b.wrong, float64(b.failed)/float64(max(b.attempted, 1)))
	return r, nil
}
