package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"runtime/pprof"
	"sort"
	"testing"

	"afsysbench/internal/core"
	"afsysbench/internal/inputs"
	"afsysbench/internal/msa"
	"afsysbench/internal/platform"
)

func run2PV7(t *testing.T) *core.PipelineResult {
	t.Helper()
	suite, err := core.NewSuite()
	if err != nil {
		t.Fatal(err)
	}
	in := inputs.Sample2PV7()
	pr, err := suite.RunPipelineCtx(context.Background(), in, core.MachineFor(in, platform.Server()), core.PipelineOptions{Threads: 1, FreshMSA: true})
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

// clone copies a result deeply enough that perturbing the copy leaves the
// original intact.
func clone(pr *core.PipelineResult) *core.PipelineResult {
	c := *pr
	d := *pr.MSAData
	d.PerChain = append([]msa.ChainResult(nil), pr.MSAData.PerChain...)
	f := *pr.MSAData.Features
	d.Features = &f
	c.MSAData = &d
	return &c
}

func TestDigestRejectsPerturbedResult(t *testing.T) {
	pr := run2PV7(t)
	var g goldens
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		t.Fatal(err)
	}
	if ok, err := g.check(pr, 1, false); err != nil || !ok {
		t.Fatalf("unperturbed result fails its committed golden digest: ok=%v err=%v", ok, err)
	}
	pinned := map[string]func(*core.PipelineResult){
		"sample":            func(p *core.PipelineResult) { p.Sample += "x" },
		"chain id":          func(p *core.PipelineResult) { p.MSAData.PerChain[0].ChainID += "x" },
		"hits":              func(p *core.PipelineResult) { p.MSAData.PerChain[0].Hits++ },
		"rows":              func(p *core.PipelineResult) { p.MSAData.PerChain[0].Rows++ },
		"hit residues":      func(p *core.PipelineResult) { p.MSAData.PerChain[0].HitResidues++ },
		"feature rows":      func(p *core.PipelineResult) { p.MSAData.Features.Rows++ },
		"feature cols":      func(p *core.PipelineResult) { p.MSAData.Features.Cols++ },
		"paired rows":       func(p *core.PipelineResult) { p.MSAData.Features.PairedRows++ },
		"msa seconds":       func(p *core.PipelineResult) { p.MSASeconds = math.Nextafter(p.MSASeconds, math.Inf(1)) },
		"inference seconds": func(p *core.PipelineResult) { p.Inference.ComputeSeconds *= 1 + 1e-12 },
	}
	for name, perturb := range pinned {
		c := clone(pr)
		perturb(c)
		if ok, _ := g.check(c, 1, false); ok {
			t.Errorf("digest check accepts a result with perturbed %s", name)
		}
	}
	free := map[string]func(*core.PipelineResult){
		"candidates":   func(p *core.PipelineResult) { p.MSAData.PerChain[0].Candidates++ },
		"cells dp":     func(p *core.PipelineResult) { p.MSAData.PerChain[0].CellsDP++ },
		"cells pruned": func(p *core.PipelineResult) { p.MSAData.PerChain[0].CellsPruned++ },
	}
	for name, perturb := range free {
		c := clone(pr)
		perturb(c)
		if ok, _ := g.check(c, 1, false); !ok {
			t.Errorf("digest check rejects a result whose %s changed; it is outside the pinned fields", name)
		}
	}
}

func TestGoldensCoverEveryCheckedOperation(t *testing.T) {
	var g goldens
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		t.Fatal(err)
	}
	for threads := 1; threads <= maxGoldenThreads; threads++ {
		for _, s := range pipelineSamples {
			if _, ok := g[goldenKey(s, threads, false)]; !ok {
				t.Errorf("no golden for %s", goldenKey(s, threads, false))
			}
		}
	}
	for _, w := range []servingWorkload{coldServing, hotServing} {
		mix, err := w.mix()
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mix {
			if _, ok := g[goldenKey(m.Sample, servingThreads, true)]; !ok {
				t.Errorf("no golden for %s", goldenKey(m.Sample, servingThreads, true))
			}
		}
	}
}

func TestReportedTailHasTenSamplesBeyond(t *testing.T) {
	for _, w := range []servingWorkload{coldServing, hotServing} {
		mix, err := w.mix()
		if err != nil {
			t.Fatal(err)
		}
		n := w.openReps * mixSize(mix)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		if _, beyond := tail(xs, 95); beyond < minBeyond {
			t.Errorf("%d open-loop requests leave %d samples beyond p95, want >= %d", n, beyond, minBeyond)
		}
	}
	// The check itself: too few samples must be caught.
	xs := make([]float64, 150)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, beyond := tail(xs, 95); beyond >= minBeyond {
		t.Errorf("150 samples leave %d beyond p95; the check would pass a tail it cannot resolve", beyond)
	}
}

func TestScheduleReproducesFromSeed(t *testing.T) {
	mix, err := ppiMix()
	if err != nil {
		t.Fatal(err)
	}
	a := poissonSchedule(7, 150, 50, mix)
	if !reflect.DeepEqual(a, poissonSchedule(7, 150, 50, mix)) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, poissonSchedule(8, 150, 50, mix)) {
		t.Fatal("different seeds gave the same schedule")
	}
	rate := float64(len(a)) / a[len(a)-1].Due.Seconds()
	if rate < 140 || rate > 160 {
		t.Errorf("mean arrival rate %.1f/s, want about 150", rate)
	}
	for i := 1; i < len(a); i++ {
		if a[i].Due < a[i-1].Due {
			t.Fatalf("arrival %d is due before arrival %d", i, i-1)
		}
	}
	burst, err := burstOrder(2, mix)
	if err != nil {
		t.Fatal(err)
	}
	for _, names := range [][]string{burst, shuffledMix(3, 2, mix)} {
		sorted := append([]string(nil), names...)
		sort.Strings(sorted)
		var want []string
		for _, m := range mix {
			want = append(want, m.Sample, m.Sample)
		}
		sort.Strings(want)
		if !reflect.DeepEqual(sorted, want) {
			t.Fatal("a burst or a schedule is not the mix repeated")
		}
	}
}

func TestFoldCoversProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	b := &bench{log: os.Stderr, metrics: map[string]float64{}, fold: newFold()}
	_, err := b.runPass(context.Background(), inputs.Samples(), 2, false, 0)
	pprof.StopCPUProfile()
	if err != nil {
		t.Fatal(err)
	}
	samples, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	f := newFold()
	f.add(samples)
	if f.Total == 0 {
		t.Fatal("empty profile")
	}
	if u := f.unmapped(0.01); len(u) > 0 {
		t.Errorf("hmmer symbols above 1%% of CPU missing from the symbol table: %v", u)
	}
	var sum int64
	for _, l := range foldLayers {
		sum += f.Layer[l]
	}
	if sum != f.Total || len(f.Layer) > len(foldLayers) {
		t.Errorf("layers %v do not partition the profile total %d", f.Layer, f.Total)
	}
	if s := f.share(f.Layer["hmmer"]); s < 0.5 {
		t.Errorf("hmmer holds %.2f of a pipeline pass's CPU, want most of it", s)
	}
}

func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark reports %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not a benchmark workload", w.Name)
		}
	}
}
