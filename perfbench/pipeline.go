package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"afsysbench/internal/core"
	"afsysbench/internal/inputs"
	"afsysbench/internal/platform"
)

// pipelineSamples are the Table II samples in paper order.
var pipelineSamples = core.SampleNames()

// pipelineSLO is the latency limit on one sample's pipeline run.
const pipelineSLO = 5 * time.Second

// maxGoldenThreads bounds the thread count the pipeline workload runs at:
// modeled MSA seconds depend on it, and golden.json holds digests for 1
// through this count.
const maxGoldenThreads = 64

// pipelineThreads is the table2-pipeline thread count: one per CPU, as
// afsysbench -run is advised to use, capped at maxGoldenThreads.
func pipelineThreads() int {
	return min(runtime.NumCPU(), maxGoldenThreads)
}

// pipelinePass is what one pass measured.
type pipelinePass struct {
	wall    time.Duration
	calls   []time.Duration // one per sample, paper order
	msa     time.Duration   // summed RunMSAPhase time (traced passes)
	inf     time.Duration   // summed RunInferencePhase time (traced passes)
	chains  time.Duration   // summed ChainDone walls (traced passes)
	results []*core.PipelineResult
}

// runPass runs one closed-loop pass: a fresh suite, as afsysbench -run
// builds, then the five samples in paper order. Untraced passes call
// RunPipelineCtx; traced passes call its two phase entry points and
// ComposeResult — the same work — so the phases can be timed, and observe
// every chain search through ChainDone.
func (b *bench) runPass(ctx context.Context, ins []*inputs.Input, threads int, traced bool, passIdx int) (*pipelinePass, error) {
	p := &pipelinePass{}
	t0 := time.Now()
	suite, err := core.NewSuite()
	if err != nil {
		return nil, err
	}
	for _, in := range ins {
		mach := core.MachineFor(in, platform.Server())
		opts := core.PipelineOptions{Threads: threads, FreshMSA: true}
		op := fmt.Sprintf("pass%d/%s", passIdx, in.Name)
		c0 := time.Now()
		var pr *core.PipelineResult
		if !traced {
			pr, err = suite.RunPipelineCtx(ctx, in, mach, opts)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", in.Name, err)
			}
		} else {
			var mu sync.Mutex
			opts.ChainDone = func(chain string, wall time.Duration) {
				end := time.Now()
				mu.Lock()
				p.chains += wall
				mu.Unlock()
				b.addSpan(op, "chain/"+chain, end.Add(-wall), end)
			}
			mp, err := suite.RunMSAPhase(ctx, in, mach, opts)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", in.Name, err)
			}
			c1 := time.Now()
			pb, err := suite.RunInferencePhase(ctx, in, mach, opts)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", in.Name, err)
			}
			pr = core.ComposeResult(in, mach, threads, mp, pb)
			c2 := time.Now()
			p.msa += c1.Sub(c0)
			p.inf += c2.Sub(c1)
			b.addSpan(op, "msa_phase", c0, c1)
			b.addSpan(op, "inference_phase", c1, c2)
		}
		p.calls = append(p.calls, time.Since(c0))
		p.results = append(p.results, pr)
	}
	p.wall = time.Since(t0)
	return p, nil
}

// runPipeline is the table2-pipeline workload: one closed-loop caller
// reproducing Table II, pass after pass, for the run's duration.
func runPipeline(b *bench) error {
	ctx := context.Background()
	ins := inputs.Samples()
	threads := pipelineThreads()

	// Set-up: a suite and one warm-up run of the smallest sample, so the
	// first timed pass does not pay lazy runtime and pool start-up.
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		suite, err := core.NewSuite()
		if err != nil {
			return err
		}
		in := ins[0]
		pr, err := suite.RunPipelineCtx(ctx, in, core.MachineFor(in, platform.Server()), core.PipelineOptions{Threads: threads, FreshMSA: true})
		if err != nil {
			return fmt.Errorf("warm-up %s: %w", in.Name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		b.verify(pr, threads, false)
	}
	b.set("setup_s", median(setups))

	// Timed passes until the run's time is spent. A traced run alternates
	// untraced and traced passes: per-layer figures come from the traced
	// ones, and the difference in pass time is the tracing overhead.
	var plain, traced []*pipelinePass
	var calls []float64
	var memBefore memSnap
	deadline := b.start.Add(b.seconds)
	for i := 0; ; i++ {
		tracedPass := b.traced && i%2 == 1
		if tracedPass {
			memBefore = readMem()
			if err := b.profileStart(); err != nil {
				return err
			}
		}
		p, err := b.runPass(ctx, ins, threads, tracedPass, i)
		if tracedPass {
			if perr := b.profileStop(); perr != nil && err == nil {
				err = perr
			}
		}
		if err != nil {
			b.attempted++
			b.failed++
			return err
		}
		for j, pr := range p.results {
			b.attempted++
			if !b.verify(pr, threads, false) {
				b.failed++
			}
			calls = append(calls, msOf(p.calls[j]))
		}
		if tracedPass {
			b.pipelineCounts(p)
			p.results = nil
			b.addMem(memBefore, readMem(), len(ins))
			traced = append(traced, p)
		} else {
			p.results = nil
			plain = append(plain, p)
		}
		if time.Now().After(deadline) && len(plain) >= 2 && (!b.traced || len(traced) >= 1) {
			break
		}
	}

	passS := make([]float64, len(plain))
	for i, p := range plain {
		passS[i] = p.wall.Seconds()
	}
	b.set("pass_s", median(passS))
	b.set("drain_rps", float64(len(ins))/median(passS))
	b.set("latency_p50_ms", median(calls))
	p95, _ := tail(calls, 95)
	b.set("latency_p95_ms", p95)
	met := 0
	for _, c := range calls {
		if c <= msOf(pipelineSLO) {
			met++
		}
	}
	b.set("slo_met_share", float64(met)/float64(b.attempted))

	if b.traced {
		tracedS := make([]float64, len(traced))
		perSample := make([][]float64, len(ins))
		var msaMs, infMs, chainMs []float64
		for i, p := range traced {
			tracedS[i] = p.wall.Seconds()
			for j, c := range p.calls {
				perSample[j] = append(perSample[j], msOf(c))
			}
			msaMs = append(msaMs, msOf(p.msa))
			infMs = append(infMs, msOf(p.inf))
			chainMs = append(chainMs, msOf(p.chains))
		}
		for j, in := range ins {
			b.set("core.run_ms."+in.Name, median(perSample[j]))
		}
		b.set("core.msa_phase_ms", median(msaMs))
		b.set("core.inference_phase_ms", median(infMs))
		b.set("msa.chain_search_ms", median(chainMs))
		b.set("msa.phase_other_ms", median(msaMs)-median(chainMs))
		b.set("trace.overhead_pct", 100*(median(tracedS)-median(passS))/median(passS))
		b.reportMem()
	}
	return nil
}

// pipelineCounts sets the hmmer work counts per operation from the
// results' public per-chain summaries.
func (b *bench) pipelineCounts(p *pipelinePass) {
	var c hmmerCounts
	for _, pr := range p.results {
		c.add(pr)
	}
	c.report(b, len(p.results))
}

// hmmerCounts sums the search work of freshly searched results.
type hmmerCounts struct {
	candidates, hits int
	cellsDP          uint64
}

func (c *hmmerCounts) add(pr *core.PipelineResult) {
	if pr.MSAData == nil {
		return
	}
	for _, ch := range pr.MSAData.PerChain {
		c.candidates += ch.Candidates
		c.hits += ch.Hits
		c.cellsDP += ch.CellsDP
	}
}

func (c *hmmerCounts) report(b *bench, ops int) {
	if ops == 0 {
		return
	}
	b.set("hmmer.candidates", float64(c.candidates)/float64(ops))
	b.set("hmmer.hits", float64(c.hits)/float64(ops))
	if c.candidates > 0 {
		b.set("hmmer.hit_ratio", float64(c.hits)/float64(c.candidates))
	}
	b.set("hmmer.cells_dp", float64(c.cellsDP)/float64(ops))
}
