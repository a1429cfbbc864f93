package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// smokeConfig is every workload at 1/50 of its operation count on inputs
// small enough that the whole package tests in seconds.
func smokeConfig(workload string, seed int64) runConfig {
	return runConfig{workload: workload, seed: seed, scale: 1.0 / 50, setupReps: 1, tiny: true}
}

var legalName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkMetrics asserts that got holds exactly the metrics want lists, each
// once (a map cannot hold a name twice), finite, legally named, in the unit
// BENCHMARK.json states.
func checkMetrics(t *testing.T, where string, got map[string]metric, want []metricSpec) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics emitted, BENCHMARK.json lists %d", where, len(got), len(want))
	}
	for _, spec := range want {
		m, ok := got[spec.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %q of BENCHMARK.json is not emitted", where, spec.Name)
		case !legalName.MatchString(spec.Name):
			t.Errorf("%s: metric name %q is not legal", where, spec.Name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: metric %q is %v", where, spec.Name, m.Value)
		case m.Unit != spec.Unit:
			t.Errorf("%s: metric %q has unit %q, BENCHMARK.json says %q", where, spec.Name, m.Unit, spec.Unit)
		}
	}
}

func TestSmokeEveryMetricOnEveryWorkload(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != runSeconds {
		t.Errorf("BENCHMARK.json run_seconds %d, program freezes its counts at %d", spec.RunSeconds, runSeconds)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, program has %d", len(spec.Workloads), len(workloadNames))
	}
	for i, wl := range spec.Workloads {
		if wl.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, wl.Name, workloadNames[i])
		}
		t.Run(wl.Name, func(t *testing.T) {
			cfg := smokeConfig(wl.Name, 1)
			cfg.tmp = t.TempDir()
			res, det, err := runUntraced(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("untraced: correct=%v attempted=%d failed=%d: %v", res.Correct, res.Attempted, res.Failed, det.Failures)
			}
			checkMetrics(t, "untraced", res.Metrics, spec.EndToEnd)
			for name, m := range res.Metrics {
				if m.Value == 0 {
					t.Errorf("end-to-end metric %q is 0; the contract wants metrics that never are", name)
				}
			}

			res, det, err = runTraced(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("traced: correct=%v failed=%d: %v", res.Correct, res.Failed, det.Failures)
			}
			checkMetrics(t, "traced", res.Metrics, spec.PerLayer)
			var total float64
			for _, share := range det.LayerShare {
				total += share
			}
			if math.Abs(total-1) > 1e-6 {
				t.Errorf("layer shares sum to %v, want 1: %v", total, det.LayerShare)
			}
		})
	}
}

// The paper-side metrics are pure functions of (seed, frozen sizes): equal
// across two runs at one seed, different at another.
func TestSmokeDeterministicMetrics(t *testing.T) {
	names := []string{"space_words_p50", "passes_per_query", "accuracy_mean"}
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			at := func(seed int64) map[string]metric {
				cfg := smokeConfig(w, seed)
				cfg.tmp = t.TempDir()
				res, _, err := runUntraced(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return res.Metrics
			}
			a, b, other := at(1), at(1), at(2)
			differs := false
			for _, n := range names {
				if a[n].Value != b[n].Value {
					t.Errorf("%s differs across two runs at seed 1: %v vs %v", n, a[n].Value, b[n].Value)
				}
				if a[n].Value != other[n].Value {
					differs = true
				}
			}
			if !differs {
				t.Errorf("seed 2 reproduces seed 1's %v exactly: the seed does not reach the inputs", names)
			}
		})
	}
}

// An injected wrong answer must surface as failed operations and a non-zero
// exit code of the one command.
func TestSmokeInjectedFaultFails(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run([]string{"-workload", w, "-seed", "1", "-seconds", "0.32", "-trace", "0", "-tiny", "-inject-fault"}, &stdout, &stderr)
			if code == 0 {
				t.Errorf("exit code 0 with an injected fault")
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res runResult
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("no result line: %v\nstderr: %s", err, stderr.String())
			}
			if res.Correct || res.Failed == 0 {
				t.Errorf("injected fault not counted: correct=%v failed=%d of %d", res.Correct, res.Failed, res.Attempted)
			}
			if !strings.Contains(stderr.String(), "FAILED") {
				t.Errorf("no FAILED line on stderr: %s", stderr.String())
			}

			stdout.Reset()
			if code := run([]string{"-workload", w, "-seed", "1", "-seconds", "0.32", "-trace", "0", "-tiny"}, &stdout, &stderr); code != 0 {
				t.Errorf("exit code %d without the fault", code)
			}
		})
	}
}

func TestCompareVerdicts(t *testing.T) {
	spec := &benchSpec{
		EndToEnd: []metricSpec{{Name: "query_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
			{Name: "throughput_qps", Unit: "1/s", Better: "higher", Bound: 0.10}},
	}
	spec.Workloads = []workloadSpec{{Name: "w"}}
	file := func(lat, qps []float64) *resultFile {
		wr := &workloadRecord{}
		for i := range lat {
			wr.Runs = append(wr.Runs, runRecord{Result: runResult{Metrics: map[string]metric{
				"query_p50_ms": {Value: lat[i]}, "throughput_qps": {Value: qps[i]}}}})
		}
		return &resultFile{Workloads: map[string]*workloadRecord{"w": wr}}
	}
	steady := file([]float64{100, 101, 99, 100, 102}, []float64{10, 10.1, 9.9, 10, 10.2})
	cases := []struct {
		name string
		b    *resultFile
		want []string
		code int
	}{
		{"same", steady, []string{"ok", "ok"}, 0},
		{"slower", file([]float64{120, 121, 119, 120, 122}, []float64{8, 8.1, 7.9, 8, 8.2}), []string{"worse", "worse"}, 1},
		{"faster", file([]float64{80, 81, 79, 80, 82}, []float64{12, 12.1, 11.9, 12, 12.2}), []string{"ok", "ok"}, 0},
		{"noisy", file([]float64{80, 120, 100, 60, 140}, []float64{10, 10.1, 9.9, 10, 10.2}), []string{"unresolved", "ok"}, 1},
	}
	for _, c := range cases {
		var out bytes.Buffer
		code := compareResults(spec, steady, c.b, &out)
		if code != c.code {
			t.Errorf("%s: exit code %d, want %d\n%s", c.name, code, c.code, out.String())
		}
		rows := strings.Split(strings.TrimSpace(out.String()), "\n")[1:]
		for i, want := range c.want {
			if fields := strings.Fields(rows[i]); fields[len(fields)-1] != want {
				t.Errorf("%s: row %d verdict %q, want %q\n%s", c.name, i, fields[len(fields)-1], want, out.String())
			}
		}
	}
}

// The spread must be the driver's: Python's statistics.quantiles(v, n=4).
func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4) == [3.5, 13.5, 31.0]
	vs := []float64{46, 1, 37, 2, 29, 4, 22, 7, 16, 11}
	got, ok := quartileSpread(vs)
	if want := (31.0 - 3.5) / 13.5; !ok || math.Abs(got-want) > 1e-12 {
		t.Errorf("spread %v, want %v", got, want)
	}
}

// ---- trace self-check -------------------------------------------------------

func TestTraceSelfCheck(t *testing.T) {
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			cfg := smokeConfig(w, 1)
			cfg.tmp = t.TempDir()
			cfg.traceOut = filepath.Join(cfg.tmp, "trace.json")
			res, det, err := runTraced(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// The traced run itself fails any op whose stack-depth estimate is
			// not the facade's, bit for bit and pass for pass.
			if res.Failed != 0 {
				t.Fatalf("traced run failed %d checks: %v", res.Failed, det.Failures)
			}
			b, err := os.ReadFile(cfg.traceOut)
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				Spans []span `json:"spans"`
			}
			if err := json.Unmarshal(b, &doc); err != nil {
				t.Fatal(err)
			}
			if len(doc.Spans) == 0 {
				t.Fatal("trace file holds no spans")
			}
			wall := map[int]int64{}
			self := map[int]int64{}
			children := make([]int64, len(doc.Spans))
			roots := map[int]string{}
			counts := map[int]map[string]int{}
			for i, s := range doc.Spans {
				if s.End < s.Start {
					t.Fatalf("span %d %s ends before it starts", i, s.Name)
				}
				if counts[s.Op] == nil {
					counts[s.Op] = map[string]int{}
				}
				counts[s.Op][s.Name]++
				if s.Parent < 0 {
					wall[s.Op] += s.End - s.Start
					roots[s.Op] = s.Name
					continue
				}
				p := doc.Spans[s.Parent]
				if s.Parent >= i || p.Op != s.Op {
					t.Errorf("span %d %s has parent %d of op %d", i, s.Name, s.Parent, p.Op)
				}
				if s.Start < p.Start || s.End > p.End {
					t.Errorf("span %d %s [%d,%d] outlives its parent %s [%d,%d]", i, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
				}
				children[s.Parent] += s.End - s.Start
			}
			for i, s := range doc.Spans {
				self[s.Op] += s.End - s.Start - children[i]
			}
			for op, w := range wall {
				if diff := math.Abs(float64(self[op] - w)); diff > 0.05*float64(w) {
					t.Errorf("op %d: self times sum to %d ns, wall is %d ns", op, self[op], w)
				}
			}
			// A decorator cannot silently drop a pass: at stack depth every
			// round is one pass, and FGP makes exactly three.
			stackOps := 0
			for op, root := range roots {
				if root != spanStack {
					continue
				}
				stackOps++
				c := counts[op]
				if c[spanPass] != c[spanRound] || c[spanPass] < 1 {
					t.Errorf("op %d: %d passes for %d rounds", op, c[spanPass], c[spanRound])
				}
				if c[spanFGP] == 1 && c[spanPass] != 3 {
					t.Errorf("op %d: FGP made %d passes, want 3", op, c[spanPass])
				}
				if c[spanERS] == 1 && c[spanPass] > 15 {
					t.Errorf("op %d: ERS made %d passes, more than 5r", op, c[spanPass])
				}
			}
			if w != "service-mix" && stackOps == 0 {
				t.Errorf("no stack-depth operation in the trace")
			}
		})
	}
}
