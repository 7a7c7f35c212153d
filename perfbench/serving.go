package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"afsysbench/internal/cache"
	"afsysbench/internal/core"
	"afsysbench/internal/serve"
)

// servingWorkload is an open-loop traffic mix against an in-process
// serve.Server. After set-up each run spends its time in two phases: drain
// bursts — the whole mix burstReps times, submitted at once to a fresh
// server (pass_s, drain_rps) — then an open-loop phase of the mix openReps
// times over, arriving as a Poisson process at rate (latency, SLO,
// lateness), which ends the run.
type servingWorkload struct {
	mix       func() ([]weighted, error)
	rate      float64
	openReps  int
	burstReps int
	slo       time.Duration
	// cacheBytes sizes the chain cache shared by every server of the run;
	// zero turns caching off.
	cacheBytes int64
}

// serve-table2-cold: a stream of distinct complexes (the chain cache is
// off, since Submit accepts only named inputs), at about 60% of the drain
// rate of a 2-vCPU host, so every request pays a full scan behind a queue.
var coldServing = servingWorkload{
	mix: func() ([]weighted, error) {
		return []weighted{{"2PV7", 2}, {"7RCE", 2}, {"1YY9", 1}}, nil
	},
	rate:      6.5,
	openReps:  40,
	burstReps: 4,
	slo:       time.Second,
}

// serve-ppi-hot: the all-vs-all PPI screen after a warm pass, so every
// chain is a memory hit and the scan kernels are bypassed; afserve's
// default 512 MiB chain cache.
var hotServing = servingWorkload{
	mix:        ppiMix,
	rate:       150,
	openReps:   22,
	burstReps:  10,
	slo:        25 * time.Millisecond,
	cacheBytes: 512 << 20,
}

// Serving requests run one scan thread each (the pool supplies the
// parallelism), so their golden digests are the threads=1, resident-model
// ones.
const (
	servingThreads = 1
	drainTimeout   = 120 * time.Second
	pollEvery      = 2 * time.Millisecond
	// minBursts bounds the noise of the median burst where the open loop
	// leaves little time for the drain phase.
	minBursts = 5
)

func (w servingWorkload) server(suite *core.Suite, c *cache.Cache, hook func(string, int)) *serve.Server {
	return serve.NewWithSuite(suite, serve.Config{
		Threads:    servingThreads,
		MSAWorkers: runtime.NumCPU(),
		// Deep enough that a drain burst is admitted whole.
		QueueDepth: 1024,
		Cache:      c,
		PanicHook:  hook,
	})
}

// request is one submitted operation and what the benchmark saw of it.
type request struct {
	sample   string
	due      time.Time // when the schedule wanted it sent
	sent     time.Time // Submit called
	admitted time.Time // Submit returned
	id       string
	ordinal  int // the server's job ordinal, as passed to PanicHook
	err      error
	observed time.Time // the poller first saw the job terminal

	done      bool    // completed
	ok        bool    // completed with the golden digest
	latencyMs float64 // from due to completion
	status    serve.JobStatus
}

// stageLog records the PanicHook guard points of each job: MSA stage
// start, hand-off to the GPU queue, inference stage start.
type stageLog struct {
	mu sync.Mutex
	at map[int]*[3]time.Time
}

var stagePoints = map[string]int{"msa": 0, "handoff": 1, "inference": 2}

func newStageLog() *stageLog { return &stageLog{at: map[int]*[3]time.Time{}} }

func (l *stageLog) hook(point string, ordinal int) {
	now := time.Now()
	i, ok := stagePoints[point]
	if !ok {
		return
	}
	l.mu.Lock()
	e := l.at[ordinal]
	if e == nil {
		e = new([3]time.Time)
		l.at[ordinal] = e
	}
	e[i] = now
	l.mu.Unlock()
}

func (l *stageLog) get(ordinal int) ([3]time.Time, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e := l.at[ordinal]
	if e == nil {
		return [3]time.Time{}, false
	}
	return *e, true
}

// poller observes job completion independently of the server's own wall
// clock: it polls every outstanding job's status and stamps the first
// time it is terminal.
type poller struct {
	srv   *serve.Server
	mu    sync.Mutex
	watch map[*request]bool
	stopc chan struct{}
	done  chan struct{}
}

func startPoller(srv *serve.Server) *poller {
	p := &poller{srv: srv, watch: map[*request]bool{}, stopc: make(chan struct{}), done: make(chan struct{})}
	go p.run()
	return p
}

func (p *poller) add(r *request) {
	p.mu.Lock()
	p.watch[r] = true
	p.mu.Unlock()
}

func (p *poller) run() {
	defer close(p.done)
	t := time.NewTicker(pollEvery)
	defer t.Stop()
	var pending []*request
	for {
		select {
		case <-p.stopc:
			p.sweep(pending[:0])
			return
		case <-t.C:
			pending = p.sweep(pending[:0])
		}
	}
}

func (p *poller) sweep(buf []*request) []*request {
	p.mu.Lock()
	for r := range p.watch {
		buf = append(buf, r)
	}
	p.mu.Unlock()
	for _, r := range buf {
		st, ok := p.srv.Status(r.id)
		if ok && (st.State == "done" || st.State == "failed") {
			now := time.Now() // after the read, so never before completion
			p.mu.Lock()
			r.observed = now
			delete(p.watch, r)
			p.mu.Unlock()
		}
	}
	return buf
}

// stop ends polling after one last sweep and waits for the goroutine.
func (p *poller) stop() {
	close(p.stopc)
	<-p.done
}

// segment is one server's share of a run: its requests and, when traced,
// its stage log.
type segment struct {
	srv      *serve.Server
	reqs     []*request
	stages   *stageLog
	admitted int
}

func (b *bench) newSegment(w servingWorkload, suite *core.Suite, c *cache.Cache, traced bool) *segment {
	s := &segment{}
	var hook func(string, int)
	if traced {
		s.stages = newStageLog()
		hook = s.stages.hook
	}
	s.srv = w.server(suite, c, hook)
	s.srv.Start()
	return s
}

func (s *segment) submit(r *request) {
	r.sent = time.Now()
	if r.due.IsZero() {
		r.due = r.sent
	}
	r.id, r.err = s.srv.Submit(serve.Request{Sample: r.sample})
	r.admitted = time.Now()
	if r.err == nil {
		r.ordinal = s.admitted
		s.admitted++
	}
	s.reqs = append(s.reqs, r)
}

func (s *segment) waitIdle() error {
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := s.srv.WaitIdle(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	return nil
}

// collect checks every request of a finished segment against its golden
// digest, fills in its latency and, when traced, records its stage spans.
// It returns the counts of freshly searched work.
func (b *bench) collect(s *segment, op string, counted bool) hmmerCounts {
	var hc hmmerCounts
	for i, r := range s.reqs {
		if r.err == nil {
			st, found := s.srv.Status(r.id)
			r.status = st
			if found && st.State == "done" {
				if pr, has := s.srv.Result(r.id); has {
					r.ok = b.verify(pr, servingThreads, true)
					if d := pr.MSAData; d != nil && d.CachedChains == 0 && d.RestoredChains == 0 {
						hc.add(pr)
					}
				}
				r.done = true
				r.latencyMs = msOf(r.end().Sub(r.due))
				// The server starts its wall clock inside Submit, so the
				// job cannot have finished before sent+wall; the poller
				// must not have seen it finish earlier.
				if earliest := r.sent.Add(r.wall()); !r.observed.IsZero() && r.observed.Before(earliest.Add(-10*time.Microsecond)) {
					b.problem("%s: server wall time ends %v after the poller saw the job finish", r.id, earliest.Sub(r.observed))
				}
				if s.stages != nil {
					b.jobSpans(fmt.Sprintf("%s/%d", op, i), r, s.stages)
				}
			}
		}
		if counted {
			b.attempted++
			if !r.ok {
				b.failed++
			}
		}
	}
	return hc
}

func (r *request) wall() time.Duration {
	return time.Duration(r.status.WallMs * float64(time.Millisecond))
}

// end is when the job completed: the server's wall time counted from
// the end of Submit, which starts that clock after resolving the sample
// and is within microseconds of returning.
func (r *request) end() time.Time { return r.admitted.Add(r.wall()) }

func (b *bench) jobSpans(op string, r *request, l *stageLog) {
	at, ok := l.get(r.ordinal)
	if !ok {
		return
	}
	b.addSpan(op, "admit", r.sent, r.admitted)
	b.addSpan(op, "queue", r.admitted, at[0])
	b.addSpan(op, "msa", at[0], at[1])
	b.addSpan(op, "handoff", at[1], at[2])
	b.addSpan(op, "inference", at[2], r.end())
}

// runServing runs a serving workload: set-up with a warm pass, the
// open-loop phase, then drain bursts.
func runServing(b *bench, w servingWorkload) error {
	mix, err := w.mix()
	if err != nil {
		return err
	}

	// Set-up: suite, cache and a warm pass over every distinct sample of
	// the mix, so the open loop starts with lazy state built and, with the
	// cache on, every chain resident.
	var suite *core.Suite
	var c *cache.Cache
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		suite, err = core.NewSuite()
		if err != nil {
			return err
		}
		c = nil
		if w.cacheBytes > 0 {
			c = cache.New(w.cacheBytes)
		}
		s := b.newSegment(w, suite, c, false)
		for _, m := range mix {
			s.submit(&request{sample: m.Sample})
		}
		err := s.waitIdle()
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			s.srv.Stop()
			return fmt.Errorf("warm pass: %w", err)
		}
		b.collect(s, "warm", false)
		for _, r := range s.reqs {
			if !r.done {
				b.problem("warm pass: %s did not complete: %v %s", r.sample, r.err, r.status.Error)
			}
		}
		s.srv.Stop()
	}
	b.set("setup_s", median(setups))

	// The drain bursts come first and leave the open loop the end of the
	// run: the open-loop server keeps every job it serves, and the bursts
	// would otherwise run against the heap it grew.
	openLoopTime := time.Duration(float64(w.openReps*mixSize(mix)) / w.rate * float64(time.Second))
	if err := b.drain(w, suite, c, mix, b.start.Add(b.seconds-openLoopTime)); err != nil {
		return err
	}
	return b.openLoop(w, suite, c, mix)
}

// openLoop submits the seed's Poisson schedule, timing each request from
// its due time. In a traced run the whole phase is traced.
func (b *bench) openLoop(w servingWorkload, suite *core.Suite, c *cache.Cache, mix []weighted) error {
	sched := poissonSchedule(b.seed, w.rate, w.openReps, mix)
	s := b.newSegment(w, suite, c, b.traced)
	defer s.srv.Stop()
	poll := startPoller(s.srv)
	cacheBefore := c.Stats()
	var memBefore memSnap
	if b.traced {
		memBefore = readMem()
		if err := b.profileStart(); err != nil {
			poll.stop()
			return err
		}
	}
	t0 := time.Now()
	for _, a := range sched {
		due := t0.Add(a.Due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		r := &request{sample: a.Sample, due: due}
		s.submit(r)
		if r.err == nil {
			poll.add(r)
		}
	}
	err := s.waitIdle()
	poll.stop()
	if b.traced {
		if perr := b.profileStop(); perr != nil && err == nil {
			err = perr
		}
	}
	if err != nil {
		return err
	}
	var memAfter memSnap
	if b.traced {
		memAfter = readMem()
	}
	cacheAfter := c.Stats()
	hc := b.collect(s, "open", true)

	var lat, late, admit, queue, msaStage, handoff, inference []float64
	var fresh, mem, done int
	met := 0
	for _, r := range s.reqs {
		late = append(late, msOf(r.sent.Sub(r.due)))
		if !r.done {
			continue
		}
		done++
		if r.observed.IsZero() {
			b.problem("%s finished but the poller never saw it", r.id)
		}
		lat = append(lat, r.latencyMs)
		if r.ok && r.latencyMs <= msOf(w.slo) {
			met++
		}
		fresh += r.status.ChainsFresh
		mem += r.status.ChainsMem
		if s.stages == nil {
			continue
		}
		at, ok := s.stages.get(r.ordinal)
		if !ok {
			continue
		}
		admit = append(admit, float64(r.admitted.Sub(r.sent))/float64(time.Microsecond))
		queue = append(queue, msOf(max(at[0].Sub(r.admitted), 0)))
		msaStage = append(msaStage, msOf(at[1].Sub(at[0])))
		handoff = append(handoff, msOf(at[2].Sub(at[1])))
		inference = append(inference, msOf(r.end().Sub(at[2])))
	}
	// A request that failed or missed its digest counts against the SLO.
	b.set("slo_met_share", float64(met)/float64(len(s.reqs)))
	b.set("latency_p50_ms", median(lat))
	p95, beyond := tail(lat, 95)
	b.set("latency_p95_ms", p95)
	if !b.traced && beyond < minBeyond {
		b.problem("latency p95 has %d samples beyond it, want at least %d", beyond, minBeyond)
	}
	latep95, _ := tail(late, 95)
	b.set("gen.late_p95_ms", latep95)
	b.set("gen.late_max_ms", maxOf(late))

	if b.traced {
		b.set("serve.admit_us", median(admit))
		b.set("serve.queue_wait_ms.p50", median(queue))
		q95, _ := tail(queue, 95)
		b.set("serve.queue_wait_ms.p95", q95)
		b.set("serve.msa_stage_ms.p50", median(msaStage))
		m95, _ := tail(msaStage, 95)
		b.set("serve.msa_stage_ms.p95", m95)
		b.set("serve.handoff_wait_ms", median(handoff))
		b.set("serve.inference_stage_ms", median(inference))
		if done > 0 {
			b.set("serve.chains_fresh", float64(fresh)/float64(done))
			b.set("serve.chains_mem", float64(mem)/float64(done))
		}
		hits := float64(cacheAfter.Hits - cacheBefore.Hits + cacheAfter.Shared - cacheBefore.Shared)
		misses := float64(cacheAfter.Misses - cacheBefore.Misses)
		if hits+misses > 0 {
			b.set("cache.hit_ratio", hits/(hits+misses))
		}
		b.set("cache.misses", misses)
		b.set("cache.evictions", float64(cacheAfter.Evictions-cacheBefore.Evictions))
		hc.report(b, done)
		b.addMem(memBefore, memAfter, done)
		b.reportMem()
	}
	return nil
}

// drain times bursts — the whole mix burstReps times, submitted at once
// to a fresh server over the run's suite and cache — until the deadline,
// and at least minBursts of each kind. A traced run alternates untraced and traced bursts;
// the difference in burst time is the tracing overhead.
func (b *bench) drain(w servingWorkload, suite *core.Suite, c *cache.Cache, mix []weighted, deadline time.Time) error {
	names, err := burstOrder(w.burstReps, mix)
	if err != nil {
		return err
	}
	var plain, traced []float64
	for i := 0; ; i++ {
		tracedBurst := b.traced && i%2 == 1
		s := b.newSegment(w, suite, c, tracedBurst)
		if tracedBurst {
			if err := b.profileStart(); err != nil {
				s.srv.Stop()
				return err
			}
		}
		t0 := time.Now()
		for _, n := range names {
			s.submit(&request{sample: n})
		}
		err := s.waitIdle()
		wall := time.Since(t0)
		if tracedBurst {
			if perr := b.profileStop(); perr != nil && err == nil {
				err = perr
			}
		}
		if err != nil {
			s.srv.Stop()
			return err
		}
		b.collect(s, fmt.Sprintf("burst%d", i), true)
		s.srv.Stop()
		if tracedBurst {
			traced = append(traced, wall.Seconds())
		} else {
			plain = append(plain, wall.Seconds())
		}
		if time.Now().After(deadline) && len(plain) >= minBursts && (!b.traced || len(traced) >= minBursts) {
			break
		}
	}
	pass := median(plain)
	b.set("pass_s", pass)
	b.set("drain_rps", float64(w.burstReps*mixSize(mix))/pass)
	if b.traced {
		b.set("trace.overhead_pct", 100*(median(traced)-pass)/pass)
	}
	return nil
}

func mixSize(mix []weighted) int {
	n := 0
	for _, m := range mix {
		n += m.Weight
	}
	return n
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}
