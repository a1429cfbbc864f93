package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// metricSpec is one entry of BENCHMARK.json's end_to_end or per_layer list.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json, the benchmark's contract with its driver.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// loadSpec reads BENCHMARK.json from the working directory or, when the
// program is run from inside benchmark/, from its parent.
func loadSpec() (*benchSpec, error) {
	var firstErr error
	for _, dir := range []string{".", ".."} {
		b, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var s benchSpec
		if err := json.Unmarshal(b, &s); err != nil {
			return nil, fmt.Errorf("BENCHMARK.json: %w", err)
		}
		return &s, nil
	}
	return nil, firstErr
}

// runSeconds is BENCHMARK.json's run_seconds: the -seconds value at which
// every workload runs exactly its frozen operation count.
const runSeconds = 16

// Units of the metrics the program emits, by name. BENCHMARK.json lists the
// same names with the same units; the smoke test holds the two together.
var endToEndUnits = map[string]string{
	"setup_s":            "s",
	"query_p50_ms":       "ms",
	"query_p90_ms":       "ms",
	"throughput_qps":     "1/s",
	"space_words_p50":    "words",
	"passes_per_query":   "1",
	"accuracy_mean":      "1",
	"alloc_mb_per_query": "MB",
	"heap_live_mb":       "MB",
}

var perLayerUnits = map[string]string{
	"stream.replay_ms":                "ms",
	"stream.replay_ns_per_update":     "ns",
	"stream.passes":                   "count",
	"stream.updates_replayed":         "count",
	"stream.append_ms_p50":            "ms",
	"stream.segment_bytes_per_update": "B",
	"transform.consume_ms":            "ms",
	"transform.round_edge_ms":         "ms",
	"transform.oracle_queries":        "count",
	"transform.answer_ok_ratio":       "1",
	"transform.shard2_ratio":          "1",
	"sketch.l0_update_ns":             "ns",
	"sketch.l0_sample_ns":             "ns",
	"sketch.reservoir_offer_ns":       "ns",
	"fgp.self_ms":                     "ms",
	"fgp.hit_ratio":                   "1",
	"fgp.plan_us":                     "us",
	"ers.self_ms":                     "ms",
	"ers.rounds":                      "count",
	"ers.aborted_ratio":               "1",
	"ers.s2_samples_p50":              "count",
	"core.session_overhead_ms":        "ms",
	"core.engine_overhead_ms":         "ms",
	"core.generations_per_query":      "1",
	"core.watch_eval_ms_p50":          "ms",
	"core.watch_checkpoint_hit_ratio": "1",
	"rcache.hit_ratio":                "1",
	"rcache.hit_us_p50":               "us",
	"server.http_overhead_us_p50":     "us",
	"server.append_overhead_ms_p50":   "ms",
	"wire.codec_us":                   "us",
	"client.retries":                  "count",
	"append_p50_ms":                   "ms",
	"watch_event_p50_ms":              "ms",
	"cached_query_p50_ms":             "ms",
	"trace.overhead_frac":             "1",
}
