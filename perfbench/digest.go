package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"

	"afsysbench/internal/core"
)

// digest hashes the fields of a pipeline result that must not change under
// any optimisation: the sample; per chain its ID, hit count, alignment
// rows and hit residues; the feature shape; and the exact modeled MSA and
// inference seconds. Raw scores and pruning counters stay out, so a kernel
// rewrite that keeps the hit set and the modeled clock passes.
func digest(pr *core.PipelineResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "sample=%s\n", pr.Sample)
	if d := pr.MSAData; d != nil {
		for _, c := range d.PerChain {
			fmt.Fprintf(&b, "chain=%s hits=%d rows=%d hitres=%d\n", c.ChainID, c.Hits, c.Rows, c.HitResidues)
		}
		if f := d.Features; f != nil {
			fmt.Fprintf(&b, "features=%dx%d paired=%d\n", f.Rows, f.Cols, f.PairedRows)
		}
	}
	fmt.Fprintf(&b, "msa_s=%016x inference_s=%016x\n", math.Float64bits(pr.MSASeconds), math.Float64bits(pr.Inference.Total()))
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// goldenKey names one expected result: the sample, the per-request thread
// count (modeled seconds depend on it) and whether the model was resident.
func goldenKey(sample string, threads int, warm bool) string {
	start := "cold"
	if warm {
		start = "warm"
	}
	return fmt.Sprintf("%s/threads=%d/%s", sample, threads, start)
}

// goldens maps goldenKey to digest.
type goldens map[string]string

// check reports whether pr matches the golden digest for its key. A key
// with no golden entry is an error: the benchmark cannot vouch for it.
func (g goldens) check(pr *core.PipelineResult, threads int, warm bool) (bool, error) {
	want, ok := g[goldenKey(pr.Sample, threads, warm)]
	if !ok {
		return false, fmt.Errorf("no golden digest for %s", goldenKey(pr.Sample, threads, warm))
	}
	return digest(pr) == want, nil
}

func (g goldens) write(path string) error {
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
