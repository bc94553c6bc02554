// Command perfbench is the repository's benchmark: a single-process load
// generator that starts crserve and crshard built from the checkout, drives
// them over loopback HTTP with one of three named workloads, checks every
// answer against an in-process reference, and prints the end-to-end metrics
// of an untraced run or the per-layer metrics of a traced one. README.md
// gives why each workload exists, which layers it loads and which it
// bypasses, and the table of which end-to-end metric each layer metric
// should move.
//
// Run it from the repository root through run.sh, which builds everything
// under .bench_build/:
//
//	bash perfbench/run.sh --workload fleet-batch-nba --seed 7 --seconds 15 --trace 0
package main
