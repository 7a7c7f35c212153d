package main

import (
	"fmt"
	"sort"
	"time"

	"afsysbench/internal/inputs"
	"afsysbench/internal/rng"
)

// arrival is one scheduled request of an open-loop trace: the sample to
// submit and when, as an offset from the start of the phase.
type arrival struct {
	Due    time.Duration
	Sample string
}

// weighted is one entry of a request mix.
type weighted struct {
	Sample string
	Weight int
}

// poissonSchedule draws an open-loop trace: the mix repeated reps times
// in a seeded random order (so every trace holds the mix in exact
// proportion), sent with exponential gaps at the given mean rate
// (requests per second). It is a pure function of its arguments, so a
// seed names one trace.
func poissonSchedule(seed uint64, rate float64, reps int, mix []weighted) []arrival {
	names := shuffledMix(seed, reps, mix)
	gaps := rng.New(seed).Split(1)
	out := make([]arrival, len(names))
	var t float64
	for i, name := range names {
		t += gaps.ExpFloat64() / rate
		out[i] = arrival{Due: time.Duration(t * float64(time.Second)), Sample: name}
	}
	return out
}

// shuffledMix is the mix repeated reps times, each entry by its weight,
// in an order shuffled by the seed.
func shuffledMix(seed uint64, reps int, mix []weighted) []string {
	names := repeatedMix(reps, mix)
	perm := rng.New(seed).Split(3).Perm(len(names))
	out := make([]string, len(names))
	for i, p := range perm {
		out[i] = names[p]
	}
	return out
}

func repeatedMix(reps int, mix []weighted) []string {
	var names []string
	for r := 0; r < reps; r++ {
		for _, w := range mix {
			for k := 0; k < w.Weight; k++ {
				names = append(names, w.Sample)
			}
		}
	}
	return names
}

// burstOrder is a drain burst: the mix repeated reps times, largest
// complexes first. Largest-first keeps the pool busy to the end of the
// burst, so the burst's wall time measures drain capacity rather than
// which request happened to start last.
func burstOrder(reps int, mix []weighted) ([]string, error) {
	size := map[string]int{}
	for _, w := range mix {
		in, err := inputs.ByName(w.Sample)
		if err != nil {
			return nil, err
		}
		size[w.Sample] = in.TotalResidues()
	}
	names := repeatedMix(reps, mix)
	sort.SliceStable(names, func(i, j int) bool { return size[names[i]] > size[names[j]] })
	return names, nil
}

// ppiMix is the all-vs-all screen over the whole PPI pool, every pair
// weighted equally.
func ppiMix() ([]weighted, error) {
	pairs, err := inputs.PPIAllPairs(0)
	if err != nil {
		return nil, fmt.Errorf("ppi pool: %w", err)
	}
	mix := make([]weighted, len(pairs))
	for i, in := range pairs {
		mix[i] = weighted{Sample: in.Name, Weight: 1}
	}
	return mix, nil
}
