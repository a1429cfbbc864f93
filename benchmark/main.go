// Command benchmark is the repository's end-to-end benchmark: four
// workloads, each measured from outside the program through its public
// interfaces, first untraced (end-to-end metrics) and then traced (per-layer
// metrics). README.md in this directory is its manual; BENCHMARK.json at the
// repository root is its contract with the driver.
//
//	benchmark -seed 1 -out results.json            all workloads, one child process each
//	benchmark -workload W -seed N -seconds S -trace 0|1   one run (what the driver calls)
//	benchmark -compare A.json B.json               two result files against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "run this one workload in this process and print one result line")
		seed     = fs.Int64("seed", 1, "seed of the generated inputs")
		seconds  = fs.Float64("seconds", runSeconds, "length of the timed section; the operation count is the frozen one times seconds/run_seconds")
		trace    = fs.String("trace", "0", "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
		traceOut = fs.String("trace-out", "", "traced run: write the spans to this file")
		detail   = fs.String("detail", "", "one workload: also write failure messages and layer shares to this file")
		out      = fs.String("out", "", "all workloads: write every run's metrics to this file")
		runs     = fs.Int("runs", 1, "all workloads: untraced runs per workload, at seeds seed, seed+1, ...")
		noTrace  = fs.Bool("no-trace", false, "all workloads: skip the traced runs")
		compare  = fs.Bool("compare", false, "compare two result files (arguments) against BENCHMARK.json's bounds")
		tiny     = fs.Bool("tiny", false, "one workload: the smoke test's small inputs (not a measurement)")
		inject   = fs.Bool("inject-fault", false, "one workload: corrupt the first result, to show that the checks catch it")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark -compare needs two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	case *workload != "":
		if *seconds <= 0 || (*trace != "0" && *trace != "1") {
			fmt.Fprintln(stderr, "benchmark: -seconds must be positive and -trace 0 or 1")
			return 2
		}
		return runChild(runConfig{
			workload:  *workload,
			seed:      *seed,
			scale:     *seconds / runSeconds,
			guard:     time.Duration(1.25 * *seconds * float64(time.Second)),
			setupReps: 3,
			tiny:      *tiny,
			inject:    *inject,
			traceOut:  *traceOut,
		}, *trace == "1", *detail, stdout, stderr)
	default:
		return orchestrate(*seed, *seconds, *runs, !*noTrace, *traceOut, *out, stdout, stderr)
	}
}

// runChild is one run of one workload in this process: the benchmark's
// unit, and what the driver invokes.
func runChild(cfg runConfig, traced bool, detailPath string, stdout, stderr io.Writer) int {
	// Rule 2: one core. The sharded fan-out and the concurrent collector
	// otherwise compete with the neighbours for the second vCPU.
	runtime.GOMAXPROCS(1)
	var (
		res runResult
		det runDetail
		err error
	)
	if traced {
		res, det, err = runTraced(cfg)
	} else {
		res, det, err = runUntraced(cfg)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	for _, f := range det.Failures {
		fmt.Fprintln(stderr, "benchmark: FAILED:", f)
	}
	if detailPath != "" {
		b, _ := json.Marshal(det)
		if err := os.WriteFile(detailPath, b, 0o644); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}
