package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"
)

// runConfig is one child run: one workload, one seed, traced or not.
type runConfig struct {
	workload string
	seed     int64
	// scale multiplies the frozen operation counts: seconds/run_seconds for
	// the driver, 1/50 for the smoke test. Inputs keep their size.
	scale float64
	// guard, when positive, ends the timed loop early once it has run this
	// long — the contract's run-time cap on a box slower than the one the
	// counts were frozen on. It never fires at the frozen sizes here.
	guard     time.Duration
	setupReps int    // how often set-up is repeated; setup_s is the median
	tiny      bool   // smoke-test inputs
	inject    bool   // corrupt the first result, to prove the checks bite
	traceOut  string // traced runs: where to write the spans ("" = nowhere)
	tmp       string // parent of the run's temporary directories
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the one JSON object a child prints as its last line.
type runResult struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runDetail is what a child tells the orchestrator beyond the contract's
// result line: why operations failed and where the traced time went.
type runDetail struct {
	Ops      int                `json:"ops"`
	Failures []string           `json:"failures,omitempty"`
	Raw      map[string]float64 `json:"raw,omitempty"` // statistics over all operations, and the gauge, for the record
	// OpMs and GaugeUs are the untraced run's raw series: operation i's wall
	// time, and the gauge readings around it (GaugeUs[i], GaugeUs[i+1]).
	OpMs       []float64          `json:"op_ms,omitempty"`
	GaugeUs    []float64          `json:"gauge_us,omitempty"`
	LayerShare map[string]float64 `json:"layer_share,omitempty"`
}

const minGuardedOps = 20

func scaledOps(ops int, scale float64) int {
	return max(3, int(math.Round(float64(ops)*scale)))
}

// runUntraced measures the end-to-end metrics of one workload.
func runUntraced(cfg runConfig) (runResult, runDetail, error) {
	sz, err := sizingFor(cfg.workload, cfg.tiny)
	if err != nil {
		return runResult{}, runDetail{}, err
	}
	ops := scaledOps(sz.ops, cfg.scale)

	// Set-up, repeated so that setup_s is a median; the last instance is the
	// one the operations run against.
	var w workload
	var setups []float64
	for r := 0; r < max(1, cfg.setupReps); r++ {
		if w != nil {
			w.teardown()
		}
		if w, err = newWorkload(cfg.workload, cfg.seed, sz, cfg.tmp); err != nil {
			return runResult{}, runDetail{}, err
		}
		t0 := time.Now()
		if err := w.setup(); err != nil {
			w.teardown()
			return runResult{}, runDetail{}, fmt.Errorf("%s: set-up: %w", cfg.workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.teardown()

	runtime.GC()
	var before, after, live runtime.MemStats
	runtime.ReadMemStats(&before)
	outs := make([]opOutcome, 0, ops)
	walls := make([]time.Duration, 0, ops)
	var gauge speedGauge
	gauge.sample()
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		t := time.Now()
		outs = append(outs, w.op(i, nil))
		walls = append(walls, time.Since(t))
		gauge.sample()
		if cfg.guard > 0 && i+1 >= minGuardedOps && time.Since(t0) > cfg.guard {
			break
		}
	}
	wall := time.Since(t0)
	runtime.ReadMemStats(&after)
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&live)

	if cfg.inject && outs[0].res != nil {
		wrong := *outs[0].res
		wrong.Value = wrong.Value*2 + 1
		outs[0].res = &wrong
	}
	res, det := score(outs, w)
	n := float64(len(outs))
	// Timing metrics rest on the operations that ran while the box was quiet
	// (gauge.go); the same statistics over all operations are kept in the
	// detail for comparison.
	quiet := gauge.quietOps(nil)
	var lat, rawLat, space, relErr []float64
	var passes, queries, busy, quietOps float64
	for i, o := range outs {
		if quiet[i] {
			busy += walls[i].Seconds()
			quietOps++
		}
		if o.res == nil {
			continue
		}
		rawLat = append(rawLat, ms(o.latency))
		if quiet[i] {
			lat = append(lat, ms(o.latency))
		}
		space = append(space, float64(o.res.SpaceWords))
		relErr = append(relErr, math.Abs(o.res.Value-o.exact)/o.exact)
		passes += o.passes
		queries += o.queries
	}
	if len(lat) == 0 {
		return runResult{}, det, fmt.Errorf("%s: no quiet operation succeeded: %v", cfg.workload, det.Failures)
	}
	// The paper's accuracy contract, checked on the run as a whole.
	res.Attempted++
	if e := median(relErr); !(e <= 0.25) {
		res.Failed++
		det.Failures = append(det.Failures, fmt.Sprintf("median relative error %.4f exceeds 0.25", e))
	}
	det.Raw = map[string]float64{
		"query_p50_ms":   median(rawLat),
		"query_p90_ms":   percentile(rawLat, 0.90),
		"throughput_qps": n / wall.Seconds(),
		"rel_err_p50":    median(relErr),
		"rel_err_mean":   mean(relErr),
		"quiet_ops":      quietOps,
		"gauge_min_us":   slices.Min(gauge.readings) / 1e3,
		"gauge_p50_us":   median(gauge.readings) / 1e3,
	}
	for _, wl := range walls {
		det.OpMs = append(det.OpMs, math.Round(ms(wl)*1e3)/1e3)
	}
	for _, r := range gauge.readings {
		det.GaugeUs = append(det.GaugeUs, math.Round(r/1e3))
	}
	res.Correct = res.Failed == 0

	const mb = 1 << 20
	set := func(name string, v float64) { res.Metrics[name] = metric{Value: v, Unit: endToEndUnits[name]} }
	set("setup_s", median(setups))
	set("query_p50_ms", median(lat))
	set("query_p90_ms", percentile(lat, 0.90))
	set("throughput_qps", quietOps/busy)
	set("space_words_p50", median(space))
	set("passes_per_query", passes/queries)
	set("accuracy_mean", 1-mean(relErr))
	set("alloc_mb_per_query", float64(after.TotalAlloc-before.TotalAlloc)/mb/n)
	set("heap_live_mb", float64(live.HeapAlloc)/mb)
	return res, det, nil
}

// score counts failed operations and runs the workload's end-of-run checks.
func score(outs []opOutcome, w workload) (runResult, runDetail) {
	res := runResult{Attempted: len(outs), Metrics: map[string]metric{}}
	det := runDetail{Ops: len(outs)}
	for _, o := range outs {
		if o.fail != "" {
			res.Failed++
			det.Failures = append(det.Failures, o.fail)
		}
	}
	checks, fails := w.verify(outs)
	res.Attempted += checks
	res.Failed += len(fails)
	det.Failures = append(det.Failures, fails...)
	return res, det
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(max(1, len(xs)))
}

// percentile is the linear-interpolation quantile of xs (0 for no samples).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
