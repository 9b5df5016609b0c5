// Command benchjson runs the small-scale layout sweep — leveling,
// tiering, and lazy leveling, each measured on uniform, delete-heavy, and
// scan-heavy request mixes through the experiment harness — and emits the
// write-amp/read-amp tradeoff curve as BENCH_policy.json. The harness is
// deterministic (no latency fields), so two runs at the same seed and
// scale emit identical files.
//
// Usage:
//
//	go run ./cmd/benchjson -mode policy -out BENCH_policy.json
//
// Throughput and latency of the engine's point operations are measured by
// the repository benchmark (perfbench/run.sh: the ingest, lookup, and
// mixed workloads).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"lsmssd/internal/experiments"
)

func main() {
	mode := flag.String("mode", "policy", "workload: policy (the layout sweep)")
	seed := flag.Int64("seed", 1, "key-stream seed")
	tierRuns := flag.Int("tier-runs", 4, "run budget T for tiered layouts")
	scale := flag.Float64("scale", 0.02, "experiment-harness scale")
	out := flag.String("out", "BENCH_policy.json", "output path")
	flag.Parse()

	if *mode != "policy" {
		fmt.Fprintf(os.Stderr, "benchjson: unknown mode %q (want policy; point-op throughput is perfbench/run.sh)\n", *mode)
		os.Exit(2)
	}
	if err := runPolicy(*scale, *seed, *tierRuns, *out); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// runPolicy emits the layout × workload sweep. The harness drives
// synchronous single-writer trees over a counted memory device, so the
// numbers are deterministic for a given seed and scale.
func runPolicy(scale float64, seed int64, tierRuns int, out string) error {
	p := experiments.Params{Scale: scale, Seed: seed}.WithDefaults()
	rows, table, err := p.LayoutSweep(
		experiments.DefaultLayouts(tierRuns), experiments.LayoutWorkloads, 16, 8)
	if err != nil {
		return err
	}
	if _, err := table.WriteTo(os.Stdout); err != nil {
		return err
	}
	buf, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(out, buf, 0o644); err != nil {
		return err
	}
	fmt.Println("benchjson: wrote", out)
	return nil
}
