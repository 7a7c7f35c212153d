package serve

import "sort"

// The modeled schedule replays the completed request trace on a virtual
// clock: W CPU workers execute the charged MSA seconds of each request
// (zero on a cache hit) and G GPU workers execute the modeled inference
// seconds, with every request's inference eligible the moment its MSA
// finishes. It is the serving analogue of the paper's phase accounting —
// the single-run pipeline shows MSA dominating wall time (Figure 7); the
// schedule shows what phase-split pipelining and caching recover of it at
// deployment scale. Being post-hoc and deterministic, it also gives
// benchmarks a wall-clock-independent makespan to compare configurations
// on.

// ScheduleItem is one request's placement in the modeled schedule. Times
// are virtual seconds from the start of the trace.
type ScheduleItem struct {
	ID        string  `json:"id"`
	Sample    string  `json:"sample"`
	CacheHit  bool    `json:"cache_hit"`
	CPUWorker int     `json:"cpu_worker"`
	GPUWorker int     `json:"gpu_worker"`
	MSAStart  float64 `json:"msa_start"`
	MSAEnd    float64 `json:"msa_end"`
	InfStart  float64 `json:"inf_start"`
	InfEnd    float64 `json:"inf_end"`
}

// Schedule is the modeled execution of a completed trace.
type Schedule struct {
	CPUWorkers int            `json:"cpu_workers"`
	GPUWorkers int            `json:"gpu_workers"`
	Items      []ScheduleItem `json:"items"`
	// Makespan is the virtual end of the last inference; CPUBusy and
	// GPUBusy are the summed stage seconds actually charged.
	Makespan float64 `json:"makespan_seconds"`
	CPUBusy  float64 `json:"cpu_busy_seconds"`
	GPUBusy  float64 `json:"gpu_busy_seconds"`
}

// Throughput returns modeled requests per second over the makespan.
func (s Schedule) Throughput() float64 {
	if s.Makespan <= 0 {
		return 0
	}
	return float64(len(s.Items)) / s.Makespan
}

// CPUUtilPct returns the CPU pool's busy fraction of the makespan.
func (s Schedule) CPUUtilPct() float64 {
	if s.Makespan <= 0 || s.CPUWorkers <= 0 {
		return 0
	}
	return 100 * s.CPUBusy / (s.Makespan * float64(s.CPUWorkers))
}

// GPUUtilPct returns the GPU pool's busy fraction of the makespan.
func (s Schedule) GPUUtilPct() float64 {
	if s.Makespan <= 0 || s.GPUWorkers <= 0 {
		return 0
	}
	return 100 * s.GPUBusy / (s.Makespan * float64(s.GPUWorkers))
}

// ModeledSchedule replays the server's completed jobs (submit order) on a
// virtual clock with cpuWorkers MSA lanes and gpuWorkers inference lanes.
// Stage durations are the modeled seconds each request was charged — a
// cache hit charges zero MSA seconds, which is exactly how a hit buys
// throughput. Failed or in-flight jobs are excluded. The replay is
// replayLanes with every request released at time zero.
func (s *Server) ModeledSchedule(cpuWorkers, gpuWorkers int) Schedule {
	if cpuWorkers < 1 {
		cpuWorkers = 1
	}
	if gpuWorkers < 1 {
		gpuWorkers = 1
	}
	sched := Schedule{CPUWorkers: cpuWorkers, GPUWorkers: gpuWorkers}
	s.mu.Lock()
	var lanes []laneJob
	for _, job := range s.order {
		if job.state != StateDone || job.result == nil {
			continue
		}
		// Charged inference seconds: the canonical total unbatched, the
		// amortized batch share when the request rode a batched dispatch —
		// so batching's fixed-cost amortization shows up in the modeled
		// makespan exactly once per batch.
		lanes = append(lanes, laneJob{msa: job.chargedMSASeconds, inf: job.chargedInfSeconds})
		sched.Items = append(sched.Items, ScheduleItem{ID: job.id, Sample: job.in.Name, CacheHit: job.cacheHit})
	}
	s.mu.Unlock()
	replayLanes(lanes, cpuWorkers, gpuWorkers)
	for i, l := range lanes {
		it := &sched.Items[i]
		it.CPUWorker, it.MSAStart, it.MSAEnd = l.cpu, l.msaStart, l.msaEnd
		it.GPUWorker, it.InfStart, it.InfEnd = l.gpu, l.infStart, l.infEnd
		sched.CPUBusy += l.msa
		sched.GPUBusy += l.inf
		if l.infEnd > sched.Makespan {
			sched.Makespan = l.infEnd
		}
	}
	return sched
}

// laneJob is one completed request in a modeled lane replay: its release
// time (the earliest its MSA may start) and charged stage seconds in, its
// lane placement out.
type laneJob struct {
	release, msa, inf float64
	cpu, gpu          int
	msaStart, msaEnd  float64
	infStart, infEnd  float64
}

// replayLanes list-schedules jobs, already in dispatch order, on cpuLanes
// MSA lanes and gpuLanes inference lanes: each MSA goes to the
// earliest-free CPU lane in input order, never before its release; each
// inference goes to the earliest-free GPU lane in order of MSA completion
// (input order breaks ties — the deterministic analogue of "whoever's
// features are ready first"), never before its own MSA ends. It returns
// the inference dispatch order as indices into jobs.
func replayLanes(jobs []laneJob, cpuLanes, gpuLanes int) []int {
	cpuFree := make([]float64, cpuLanes)
	for i := range jobs {
		j := &jobs[i]
		j.cpu = argminLane(cpuFree)
		j.msaStart = max(cpuFree[j.cpu], j.release)
		j.msaEnd = j.msaStart + j.msa
		cpuFree[j.cpu] = j.msaEnd
	}
	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return jobs[order[a]].msaEnd < jobs[order[b]].msaEnd
	})
	gpuFree := make([]float64, gpuLanes)
	for _, i := range order {
		j := &jobs[i]
		j.gpu = argminLane(gpuFree)
		j.infStart = max(gpuFree[j.gpu], j.msaEnd)
		j.infEnd = j.infStart + j.inf
		gpuFree[j.gpu] = j.infEnd
	}
	return order
}

// SerialMakespan returns the modeled makespan of the same completed trace
// run the stock way: one request at a time, MSA then inference, no
// overlap — the paper's one-container-per-request deployment. The ratio
// against ModeledSchedule(...).Makespan is the phase-split speedup.
func (s *Server) SerialMakespan() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total float64
	for _, job := range s.order {
		if job.state != StateDone || job.result == nil {
			continue
		}
		total += job.chargedMSASeconds + job.result.Inference.Total()
	}
	return total
}

// argminLane returns the index of the smallest value (lowest index wins
// ties), keeping lane assignment deterministic.
func argminLane(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x < xs[best] {
			best = i
		}
	}
	return best
}
