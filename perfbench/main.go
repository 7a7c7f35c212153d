// Command perfbench is the repository's end-to-end and per-layer benchmark.
// It runs the program in-process, times its layers from outside through
// public entry points and hooks, checks every result against committed
// golden digests, and prints one JSON result line last.
//
//	bash perfbench/run.sh --workload table2-pipeline --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same
// workload traced (spans, CPU profile, per-stage hooks) and reports the
// per-layer metrics, writing the spans under the output directory. The
// workloads, metrics and what each layer is expected to move are described
// in README.md.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"afsysbench/internal/core"
	"afsysbench/internal/inputs"
	"afsysbench/internal/platform"
	"afsysbench/internal/serve"
)

//go:embed golden.json
var goldenJSON []byte

var workloads = map[string]func(*bench) error{
	"table2-pipeline":   runPipeline,
	"serve-table2-cold": func(b *bench) error { return runServing(b, coldServing) },
	"serve-ppi-hot":     func(b *bench) error { return runServing(b, hotServing) },
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: table2-pipeline, serve-table2-cold or serve-ppi-hot")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 30, "how long the run measures")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	outDir := fs.String("out", defaultOutDir(), "directory the traced run writes its spans to")
	writeGolden := fs.String("write-golden", "", "compute the golden digests of the current code into this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *writeGolden != "" {
		if err := makeGoldens(*writeGolden, stderr); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	runWorkload, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of table2-pipeline, serve-table2-cold, serve-ppi-hot), --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	var g goldens
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		fmt.Fprintln(stderr, "perfbench: golden digests:", err)
		return 1
	}
	b := &bench{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		traced:   *trace == 1,
		golden:   g,
		log:      stderr,
		start:    time.Now(),
		metrics:  map[string]float64{},
		fold:     newFold(),
	}
	if b.traced {
		// A layer the workload does not load reports zero.
		for _, m := range perLayer {
			b.metrics[m.Name] = 0
		}
	}
	if err := runWorkload(b); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	b.set("ok_share", 1-float64(b.failed)/float64(max(b.attempted, 1)))
	rss, err := peakRSSMB()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	b.set("peak_rss_mb", rss)
	if b.traced {
		b.reportFold()
		path, err := b.writeSpans(*outDir)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans: %d written to %s\n", len(b.spans), path)
	}
	line, err := b.result(stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	out, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// defaultOutDir is the build directory the run script uses.
func defaultOutDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return filepath.Join(d, "perfbench")
	}
	return filepath.Join(".bench_build", "perfbench")
}

// makeGoldens records the digests the benchmark checks against: every
// Table II sample on the pipeline path (cold model, FreshMSA) at 1 to
// maxGoldenThreads threads, and every serving sample — Table II and the
// PPI pool — through a cache-less server at the serving thread count.
func makeGoldens(path string, log io.Writer) error {
	g := goldens{}
	ctx := context.Background()
	for threads := 1; threads <= maxGoldenThreads; threads++ {
		suite, err := core.NewSuite()
		if err != nil {
			return err
		}
		for _, in := range inputs.Samples() {
			pr, err := suite.RunPipelineCtx(ctx, in, core.MachineFor(in, platform.Server()), core.PipelineOptions{Threads: threads, FreshMSA: true})
			if err != nil {
				return fmt.Errorf("%s threads=%d: %w", in.Name, threads, err)
			}
			g[goldenKey(in.Name, threads, false)] = digest(pr)
		}
		fmt.Fprintf(log, "pipeline digests at %d threads\n", threads)
	}
	suite, err := core.NewSuite()
	if err != nil {
		return err
	}
	srv := serve.NewWithSuite(suite, serve.Config{Threads: servingThreads, MSAWorkers: runtime.NumCPU(), QueueDepth: 1024})
	srv.Start()
	defer srv.Stop()
	mix, err := ppiMix()
	if err != nil {
		return err
	}
	names := core.SampleNames()
	for _, m := range mix {
		names = append(names, m.Sample)
	}
	ids := make([]string, len(names))
	for i, n := range names {
		if ids[i], err = srv.Submit(serve.Request{Sample: n}); err != nil {
			return fmt.Errorf("submit %s: %w", n, err)
		}
	}
	if err := srv.WaitIdle(ctx); err != nil {
		return err
	}
	for i, id := range ids {
		pr, ok := srv.Result(id)
		if !ok {
			st, _ := srv.Status(id)
			return errors.New("serving " + names[i] + " failed: " + st.Error)
		}
		g[goldenKey(names[i], servingThreads, true)] = digest(pr)
	}
	return g.write(path)
}
