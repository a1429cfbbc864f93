package main

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"
)

// envStamp records where and on what a result file was measured: a result
// with no recorded environment is not a result.
type envStamp struct {
	CPUs       int            `json:"cpus"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go_version"`
	Commit     string         `json:"commit"`
	Seed       int64          `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Runs       int            `json:"runs"`
	Ops        map[string]int `json:"frozen_ops"`
}

func stamp(seed int64, seconds float64, runs int) envStamp {
	e := envStamp{CPUs: runtime.NumCPU(), GOMAXPROCS: 1, GoVersion: runtime.Version(), Commit: "unknown",
		Seed: seed, Seconds: seconds, Runs: runs, Ops: map[string]int{}}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	for _, name := range workloadNames {
		sz, _ := sizingFor(name, false)
		e.Ops[name] = sz.ops
	}
	return e
}

// runRecord is one child run as the result file keeps it.
type runRecord struct {
	Seed   int64     `json:"seed"`
	Result runResult `json:"result"`
	Detail runDetail `json:"detail"`
}

type workloadRecord struct {
	Runs   []runRecord `json:"runs"`             // untraced, one per seed
	Traced *runRecord  `json:"traced,omitempty"` // the traced run at the first seed
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Env       envStamp                   `json:"env"`
	Workloads map[string]*workloadRecord `json:"workloads"`
}

// orchestrate runs every workload in a fresh child process of this binary,
// one at a time (rule 1), prints every metric by name with its unit, and
// exits non-zero if any output was wrong.
func orchestrate(seed int64, seconds float64, runs int, traced bool, traceOut, out string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	scratch, err := os.MkdirTemp("", "benchmark-")
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	rf := resultFile{Env: stamp(seed, seconds, runs), Workloads: map[string]*workloadRecord{}}
	fmt.Fprintf(stdout, "env: cpus=%d gomaxprocs=%d %s commit=%s seed=%d seconds=%g runs=%d frozen_ops=%v\n",
		rf.Env.CPUs, rf.Env.GOMAXPROCS, rf.Env.GoVersion, rf.Env.Commit, seed, seconds, runs, rf.Env.Ops)
	wrong := false
	child := func(workload string, s int64, trace, traceFile string) (*runRecord, error) {
		detail := filepath.Join(scratch, "detail.json")
		os.Remove(detail)
		args := []string{"-workload", workload, "-seed", strconv.FormatInt(s, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", trace, "-detail", detail}
		if traceFile != "" {
			args = append(args, "-trace-out", traceFile)
		}
		cmd := exec.Command(exe, args...)
		var so bytes.Buffer
		cmd.Stdout, cmd.Stderr = &so, stderr
		runErr := cmd.Run()
		rec := &runRecord{Seed: s}
		lines := strings.Split(strings.TrimSpace(so.String()), "\n")
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec.Result); err != nil {
			return nil, fmt.Errorf("%s seed %d trace %s: no result line (%v): %w", workload, s, trace, runErr, err)
		}
		if b, err := os.ReadFile(detail); err == nil {
			_ = json.Unmarshal(b, &rec.Detail)
		}
		if runErr != nil || !rec.Result.Correct {
			wrong = true
		}
		return rec, nil
	}
	for _, name := range workloadNames {
		wr := &workloadRecord{}
		rf.Workloads[name] = wr
		for r := 0; r < max(1, runs); r++ {
			rec, err := child(name, seed+int64(r), "0", "")
			if err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
			wr.Runs = append(wr.Runs, *rec)
		}
		if traced {
			file := ""
			if traceOut != "" {
				file = strings.TrimSuffix(traceOut, ".json") + "." + name + ".json"
			}
			rec, err := child(name, seed, "1", file)
			if err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
			wr.Traced = rec
		}
		printWorkload(stdout, name, wr)
	}
	if out != "" {
		b, _ := json.MarshalIndent(rf, "", " ")
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if wrong {
		fmt.Fprintln(stderr, "benchmark: some outputs were wrong (see FAILED lines above)")
		return 1
	}
	return 0
}

// values returns one end-to-end metric's value in every untraced run.
func (wr *workloadRecord) values(name string) []float64 {
	var vs []float64
	for _, r := range wr.Runs {
		if m, ok := r.Result.Metrics[name]; ok {
			vs = append(vs, m.Value)
		}
	}
	return vs
}

func printWorkload(w io.Writer, name string, wr *workloadRecord) {
	attempted, failed := 0, 0
	for _, r := range wr.Runs {
		attempted += r.Result.Attempted
		failed += r.Result.Failed
	}
	fmt.Fprintf(w, "\n== %s: %d untraced run(s), %d attempted, %d failed (failed_frac %.4f)\n",
		name, len(wr.Runs), attempted, failed, float64(failed)/float64(max(1, attempted)))
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "end-to-end metric\tmedian\tunit\tspread (IQR/median)")
	for _, m := range slices.Sorted(maps.Keys(endToEndUnits)) {
		vs := wr.values(m)
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t%s\n", m, median(vs), endToEndUnits[m], spreadText(vs))
	}
	tw.Flush()
	var rawP50, quiet []float64
	for _, r := range wr.Runs {
		rawP50 = append(rawP50, r.Detail.Raw["query_p50_ms"])
		quiet = append(quiet, r.Detail.Raw["quiet_ops"])
	}
	fmt.Fprintf(w, "-- over all operations, quiet or not: query_p50_ms median %.6g, spread %s; quiet operations per run: median %.0f of %d\n",
		median(rawP50), spreadText(rawP50), median(quiet), wr.Runs[0].Detail.Ops)
	if wr.Traced == nil {
		return
	}
	fmt.Fprintf(w, "-- traced run: %d attempted, %d failed\n", wr.Traced.Result.Attempted, wr.Traced.Result.Failed)
	tw = tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "per-layer metric\tvalue\tunit")
	for _, m := range slices.Sorted(maps.Keys(wr.Traced.Result.Metrics)) {
		v := wr.Traced.Result.Metrics[m]
		fmt.Fprintf(tw, "%s\t%.6g\t%s\n", m, v.Value, v.Unit)
	}
	tw.Flush()
	fmt.Fprintln(w, "-- where the time went (share of the traced operation's wall time)")
	tw = tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	share := wr.Traced.Detail.LayerShare
	layers := slices.Sorted(maps.Keys(share))
	slices.SortStableFunc(layers, func(a, b string) int { return cmp.Compare(share[b], share[a]) })
	for _, l := range layers {
		fmt.Fprintf(tw, "%s\t%5.1f %%\n", l, 100*share[l])
	}
	tw.Flush()
}

// quartileSpread is the distance between the first and third quartile of vs
// as a share of their median, with the quartiles Python's
// statistics.quantiles(vs, n=4) gives — the driver's own measure.
func quartileSpread(vs []float64) (float64, bool) {
	if len(vs) < 2 {
		return 0, false
	}
	s := append([]float64(nil), vs...)
	slices.Sort(s)
	q := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := median(s)
	if med == 0 {
		return 0, true
	}
	return math.Abs((q(3) - q(1)) / med), true
}

func spreadText(vs []float64) string {
	if sp, ok := quartileSpread(vs); ok {
		return fmt.Sprintf("%.4f", sp)
	}
	return "-"
}

func readResults(path string) (*resultFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rf resultFile
	if err := json.NewDecoder(bufio.NewReader(f)).Decode(&rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// compareFiles applies BENCHMARK.json's bounds to two result files: one row
// per workload × end-to-end metric, `worse` when B's median is worse than
// A's by more than the bound, `unresolved` when either side's own spread is
// wider than the bound, else `ok`.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	a, err := readResults(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	b, err := readResults(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return compareResults(spec, a, b, stdout)
}

func compareResults(spec *benchSpec, a, b *resultFile, stdout io.Writer) int {
	bad := 0
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median\tB median\tchange\tbound\tspread A\tspread B\tverdict")
	for _, wl := range spec.Workloads {
		wa, wb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		for _, m := range spec.EndToEnd {
			verdict := "ok"
			if wa == nil || wb == nil || len(wa.values(m.Name)) == 0 || len(wb.values(m.Name)) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t-\t-\t-\t%.3f\t-\t-\tmissing\n", wl.Name, m.Name, m.Bound)
				bad++
				continue
			}
			va, vb := wa.values(m.Name), wb.values(m.Name)
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / math.Abs(ma) // positive = B worse, for lower-is-better
			if m.Better == "higher" {
				worse = -worse
			}
			sa, _ := quartileSpread(va)
			sb, _ := quartileSpread(vb)
			switch {
			case sa > m.Bound || sb > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "worse"
			}
			if verdict != "ok" {
				bad++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.2f %%\t%.3f\t%s\t%s\t%s\n", wl.Name, m.Name, ma, mb,
				100*(mb-ma)/math.Abs(ma), m.Bound, spreadText(va), spreadText(vb), verdict)
		}
	}
	tw.Flush()
	if bad > 0 {
		fmt.Fprintf(stdout, "%d row(s) not ok\n", bad)
		return 1
	}
	return 0
}
