// Command bench runs the repository's core micro-benchmarks and writes a
// machine-readable BENCH_core.json mapping each benchmark to its measured
// ns/op, B/op and allocs/op. It seeds the performance trajectory: successive
// revisions regenerate the file and diff it to catch regressions.
//
// With -compare BASELINE.json it additionally gates: after measuring, each
// benchmark is checked against the baseline and the process exits nonzero
// when a stable metric regresses past -tolerance. allocs/op is gated always
// (allocation counts are deterministic); ns/op only for benchmarks whose
// baseline is at or above -noise-floor, because sub-millisecond timings are
// scheduler noise on shared CI runners. Benchmarks present in the baseline
// but missing from the run fail the gate (a silently deleted benchmark is a
// regression too); new benchmarks are reported and ignored.
//
// With -in RESULTS.json it skips measuring entirely and gates a previous
// run's output: CI measures once, then re-gates the same numbers at a
// tighter tolerance on the hot-path benchmarks without paying for a second
// run (and without the two gates disagreeing about what was measured).
//
// With -cpuprofile DIR or -memprofile DIR each selected top-level benchmark
// runs in its own `go test` invocation so the profiles don't smear
// together: DIR/<Benchmark>.cpu.pprof, DIR/<Benchmark>.mem.pprof, plus the
// test binary DIR/<Benchmark>.test for pprof symbolization.
//
// With -cpu N the benchmarks run at GOMAXPROCS N (go test -cpu) instead of
// the host's core count. allocs/op of anything that fans out per P grows
// with it, so a gate against a baseline should run at the baseline's value;
// every row records the value it was measured at ("cpu"), and -compare notes
// the rows where the two differ.
//
// It shells out to `go test -bench`, so it needs the Go toolchain — the
// same environment that builds the repository.
//
// Examples:
//
//	bench                         # core set -> BENCH_core.json
//	bench -bench 'BenchmarkFGP.*' # custom selection
//	bench -filter 'WatchIngest'   # core set restricted to matching names
//	bench -benchtime 5s -out perf.json
//	bench -short -out /tmp/smoke.json  # CI smoke: one fast iteration each
//	bench -cpu 2 -compare BENCH_core.json -tolerance 0.25   # CI regression gate
//	bench -in /tmp/BENCH_ci.json -compare BENCH_core.json -tolerance 0.05 \
//	      -filter 'ContinuousAdmission'  # re-gate a prior run, no re-run
//	bench -bench BenchmarkEngineContinuousAdmission -cpuprofile /tmp/prof \
//	      -memprofile /tmp/prof          # per-benchmark pprof output
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// coreSet selects the substrate, pass-engine and session benchmarks; the
// Exp* experiment benchmarks regenerate whole report tables and are too
// slow for a default run.
const coreSet = "BenchmarkStreamPass|BenchmarkOpenFile|BenchmarkFGP|BenchmarkERS|BenchmarkInsertionRound|BenchmarkSession|BenchmarkEngine|BenchmarkServer|BenchmarkCluster|BenchmarkL0|BenchmarkReservoir|BenchmarkExact|BenchmarkDegeneracy|BenchmarkDecompose"

// Measurement is one benchmark result.
type Measurement struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	Iterations  int64   `json:"iterations"`
	// CPU is the GOMAXPROCS the row was measured at, read off the suffix go
	// test puts on the benchmark's name; 0 in files older than the stamp.
	CPU int `json:"cpu,omitempty"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("bench: ")
	var (
		benchRe     = flag.String("bench", coreSet, "benchmark selection regexp passed to go test -bench")
		benchtime   = flag.String("benchtime", "1s", "per-benchmark measuring time (go test -benchtime)")
		count       = flag.Int("count", 1, "runs per benchmark; the minimum ns/op is kept")
		cpu         = flag.Int("cpu", 0, "GOMAXPROCS to run the benchmarks at (go test -cpu); 0 leaves it to the host")
		pkg         = flag.String("pkg", ".", "package pattern to benchmark")
		out         = flag.String("out", "BENCH_core.json", "output JSON path")
		short       = flag.Bool("short", false, "smoke mode: one iteration per benchmark, numbers are build-health only")
		compare     = flag.String("compare", "", "baseline JSON to gate against; exit 1 on regression past tolerance")
		tolerance   = flag.Float64("tolerance", 0.25, "allowed relative allocs/op regression (with -compare)")
		nsTolerance = flag.Float64("ns-tolerance", 0, "allowed relative ns/op regression (0: same as -tolerance); set looser when the baseline was measured on different hardware")
		noiseFloor  = flag.Float64("noise-floor", 1e6, "baseline ns/op below which timing is not gated (with -compare)")
		filterRe    = flag.String("filter", "", "regexp restricting the run to matching benchmark names; with -compare, only baseline entries matching it are required to be present")
		inFile      = flag.String("in", "", "read measurements from a previous -out JSON instead of running benchmarks; use to re-gate one run at a different tolerance")
		cpuProfile  = flag.String("cpuprofile", "", "directory for per-benchmark CPU profiles; each top-level benchmark runs in its own go test invocation")
		memProfile  = flag.String("memprofile", "", "directory for per-benchmark memory profiles; may be combined with -cpuprofile")
	)
	flag.Parse()
	var filter *regexp.Regexp
	if *filterRe != "" {
		re, err := regexp.Compile(*filterRe)
		if err != nil {
			log.Fatalf("bad -filter regexp %q: %v", *filterRe, err)
		}
		filter = re
		if *benchRe == coreSet {
			// -filter narrows the default set; an explicit -bench keeps its
			// own selection and -filter only scopes the baseline gate.
			*benchRe = *filterRe
		}
	}
	if *short && *benchtime == "1s" {
		// One iteration per benchmark: enough to prove every benchmark still
		// builds and runs; the resulting numbers are not comparable.
		*benchtime = "1x"
	}

	var results map[string]Measurement
	switch {
	case *inFile != "":
		// Re-gate a previous run's measurements without re-running. The
		// numbers being gated are exactly the numbers that were measured —
		// a second measuring run could disagree with the first for reasons
		// that have nothing to do with the code under test.
		if *cpuProfile != "" || *memProfile != "" {
			log.Fatal("-in does not run benchmarks; profiling flags need a measuring run")
		}
		data, err := os.ReadFile(*inFile)
		if err != nil {
			log.Fatalf("read -in results: %v", err)
		}
		if err := json.Unmarshal(data, &results); err != nil {
			log.Fatalf("parse -in results %s: %v", *inFile, err)
		}
		if len(results) == 0 {
			log.Fatalf("no measurements in %s", *inFile)
		}
		fmt.Printf("bench: loaded %d results from %s\n", len(results), *inFile)
	case *cpuProfile != "" || *memProfile != "":
		var err error
		results, err = runProfiled(*benchRe, *benchtime, *count, *cpu, *pkg, *cpuProfile, *memProfile)
		if err != nil {
			log.Fatal(err)
		}
	default:
		buf, err := runGoBench(*cpu, []string{"-bench", *benchRe, "-benchmem",
			"-benchtime", *benchtime, "-count", strconv.Itoa(*count), *pkg})
		if err != nil {
			log.Fatal(err)
		}
		results, err = parseBench(buf)
		if err != nil {
			log.Fatal(err)
		}
	}
	if len(results) == 0 {
		log.Fatalf("no benchmark results matched %q", *benchRe)
	}
	if *inFile == "" {
		data, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			log.Fatal(err)
		}
	}
	names := make([]string, 0, len(results))
	for name := range results {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%-44s %14.1f ns/op %10.0f allocs/op\n",
			name, results[name].NsPerOp, results[name].AllocsPerOp)
	}
	if *inFile == "" {
		fmt.Printf("bench: wrote %d results to %s\n", len(results), *out)
	}

	if *compare != "" {
		if *short {
			log.Fatal("-compare is meaningless with -short (one-iteration numbers)")
		}
		if *nsTolerance == 0 {
			*nsTolerance = *tolerance
		}
		regressions := compareBaseline(*compare, results, *tolerance, *nsTolerance, *noiseFloor, filter)
		if regressions > 0 {
			log.Fatalf("%d regression(s) past tolerance (allocs %.0f%%, ns %.0f%%) vs %s",
				regressions, *tolerance*100, *nsTolerance*100, *compare)
		}
		fmt.Printf("bench: no regressions vs %s (allocs tol %.0f%%, ns tol %.0f%% above %.0fms)\n",
			*compare, *tolerance*100, *nsTolerance*100, *noiseFloor/1e6)
	}
}

// runGoBench shells out to `go test -run ^$ [-cpu N] <args...>` and returns
// its stdout for parsing.
func runGoBench(cpu int, args []string) (*bytes.Buffer, error) {
	full := []string{"test", "-run", "^$"}
	if cpu > 0 {
		full = append(full, "-cpu", strconv.Itoa(cpu))
	}
	full = append(full, args...)
	cmd := exec.Command("go", full...)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = os.Stderr
	fmt.Fprintf(os.Stderr, "bench: go %s\n", strings.Join(full, " "))
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go test -bench failed: %v", err)
	}
	return &buf, nil
}

// listBenchmarks returns the top-level benchmark functions matching re in
// pkg, in the order `go test -list` reports them. Sub-benchmarks
// (b.Run cases) are not listed; they run, and are profiled, under their
// parent.
func listBenchmarks(re, pkg string) ([]string, error) {
	cmd := exec.Command("go", "test", "-run", "^$", "-list", re, pkg)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go test -list failed: %v", err)
	}
	var names []string
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		if name := strings.TrimSpace(sc.Text()); strings.HasPrefix(name, "Benchmark") {
			names = append(names, name)
		}
	}
	return names, sc.Err()
}

// runProfiled measures each matching top-level benchmark in its own
// `go test` invocation so each gets its own CPU/memory profile — a single
// shared invocation would fold every benchmark into one indistinguishable
// profile. Results are merged into the same Measurement map a plain run
// produces, so -out and -compare behave identically.
func runProfiled(benchRe, benchtime string, count, cpu int, pkg, cpuDir, memDir string) (map[string]Measurement, error) {
	for _, dir := range []string{cpuDir, memDir} {
		if dir != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return nil, err
			}
		}
	}
	binDir := cpuDir
	if binDir == "" {
		binDir = memDir
	}
	names, err := listBenchmarks(benchRe, pkg)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no benchmarks matched %q in %s", benchRe, pkg)
	}
	results := make(map[string]Measurement)
	for _, name := range names {
		args := []string{"-bench", "^" + name + "$", "-benchmem",
			"-benchtime", benchtime, "-count", strconv.Itoa(count),
			"-o", filepath.Join(binDir, name+".test")}
		if cpuDir != "" {
			args = append(args, "-cpuprofile", filepath.Join(cpuDir, name+".cpu.pprof"))
		}
		if memDir != "" {
			args = append(args, "-memprofile", filepath.Join(memDir, name+".mem.pprof"))
		}
		args = append(args, pkg)
		buf, err := runGoBench(cpu, args)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", name, err)
		}
		part, err := parseBench(buf)
		if err != nil {
			return nil, err
		}
		for k, v := range part {
			results[k] = v
		}
	}
	fmt.Fprintf(os.Stderr, "bench: profiles for %d benchmark(s) under %s\n", len(names), binDir)
	return results, nil
}

// compareBaseline gates results against a baseline file and returns the
// number of regressions. allocs/op is gated for every benchmark at
// tolerance; ns/op at nsTolerance, and only where the baseline is at or
// above noiseFloor. Gains and sub-floor timing moves are informational.
// With a filter, baseline entries not matching it are skipped entirely —
// a filtered run deliberately omits them, which must not read as deletion.
func compareBaseline(path string, results map[string]Measurement, tolerance, nsTolerance, noiseFloor float64, filter *regexp.Regexp) int {
	data, err := os.ReadFile(path)
	if err != nil {
		log.Fatalf("read baseline: %v", err)
	}
	var base map[string]Measurement
	if err := json.Unmarshal(data, &base); err != nil {
		log.Fatalf("parse baseline %s: %v", path, err)
	}
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)

	regressions := 0
	fail := func(name, metric string, baseV, curV float64) {
		regressions++
		fmt.Printf("REGRESSION %-40s %s %.1f -> %.1f (%+.1f%%)\n",
			name, metric, baseV, curV, 100*(curV-baseV)/baseV)
	}
	for _, name := range names {
		if filter != nil && !filter.MatchString(name) {
			continue
		}
		b := base[name]
		cur, ok := results[name]
		if !ok {
			regressions++
			fmt.Printf("REGRESSION %-40s missing from this run (deleted or renamed without regenerating the baseline)\n", name)
			continue
		}
		// Allocation counts are deterministic per op: gate them always. The
		// +0.5 absolute slack keeps 0-alloc baselines meaningful (any new
		// allocation fails) without tripping on fractional reporting of
		// sub-1 averages.
		if cur.AllocsPerOp > b.AllocsPerOp*(1+tolerance)+0.5 {
			fail(name, "allocs/op", b.AllocsPerOp, cur.AllocsPerOp)
		}
		if b.CPU != 0 && cur.CPU != 0 && cur.CPU != b.CPU {
			fmt.Printf("note: %s ran at -cpu %d, its baseline at %d; per-P costs differ\n", name, cur.CPU, b.CPU)
		}
		// Timings gate only above the noise floor.
		if b.NsPerOp >= noiseFloor && cur.NsPerOp > b.NsPerOp*(1+nsTolerance) {
			fail(name, "ns/op", b.NsPerOp, cur.NsPerOp)
		}
	}
	for name := range results {
		if _, ok := base[name]; !ok {
			fmt.Printf("note: %s is new (not in baseline)\n", name)
		}
	}
	return regressions
}

// parseBench extracts results from `go test -bench` output lines such as
//
//	BenchmarkFGPInsertionPass-8   104   22885547 ns/op   23029059 B/op   117741 allocs/op
//
// Repeated measurements of one benchmark (-count > 1) keep the fastest run.
func parseBench(r *bytes.Buffer) (map[string]Measurement, error) {
	results := make(map[string]Measurement)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || fields[3] != "ns/op" {
			continue
		}
		name, cpu := fields[0], 1
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			// Strip the -GOMAXPROCS suffix so keys are stable across hosts;
			// go test leaves it off at GOMAXPROCS 1.
			if n, err := strconv.Atoi(name[i+1:]); err == nil {
				name, cpu = name[:i], n
			}
		}
		iters, err1 := strconv.ParseInt(fields[1], 10, 64)
		ns, err2 := strconv.ParseFloat(fields[2], 64)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("unparseable benchmark line: %q", line)
		}
		m := Measurement{NsPerOp: ns, Iterations: iters, CPU: cpu}
		for i := 4; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "B/op":
				m.BytesPerOp = v
			case "allocs/op":
				m.AllocsPerOp = v
			}
		}
		if prev, ok := results[name]; !ok || m.NsPerOp < prev.NsPerOp {
			results[name] = m
		}
	}
	return results, sc.Err()
}
