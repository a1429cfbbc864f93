package main

import (
	"math"
	"slices"
	"time"
)

// speedGauge tells which operations ran while the box was quiet. The box is
// a small VM whose cores are shared with other VMs: for tens of milliseconds
// to minutes at a time everything on it runs 1.2x to 2x slower, and a run's
// median latency then depends on how much of the run such episodes covered
// (README "Rule 8" has the measurements). One reading is the wall time of a
// fixed, allocation-free piece of arithmetic that shares no code with the
// program under test. A reading is taken before the first timed operation
// and after every one; an operation's noise level is the higher of the two
// readings around it. Timing metrics are percentiles over the quiet
// operations only. Nothing is rescaled: every value is a latency as
// measured.
type speedGauge struct {
	readings []float64 // ns
}

// quietBand is how far above the run's lowest reading an operation's noise
// level may lie for the operation to count as quiet. The gauge is pure
// arithmetic and feels a busy sibling thread more than the memory-bound
// operations do: at 1.2x on the gauge they run about 1.1x slower.
const quietBand = 1.2

// minGatedOps is the fewest operations a group must have for the selection
// to apply; the smoke test's handful all count.
const minGatedOps = 30

var gaugeTable [1 << 15]uint64

// sample takes one reading (about 1 ms).
func (g *speedGauge) sample() {
	t0 := time.Now()
	x := uint64(len(g.readings))
	for i := 0; i < 500_000; i++ {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		gaugeTable[z&(1<<15-1)] += z
	}
	g.readings = append(g.readings, float64(time.Since(t0)))
}

// quietOps reports, for each operation between consecutive readings,
// whether it counts as quiet: its noise level is within quietBand of the
// run's lowest reading, or — when the box was busy for most of the run — it
// is among the quietest third of its group's operations, so that a metric
// never rests on a handful of samples. group[i] is operation i's group
// (phases of a run that are measured apart); nil puts all in one.
func (g *speedGauge) quietOps(group []int) []bool {
	groupOf := func(i int) int {
		if group == nil {
			return 0
		}
		return group[i]
	}
	level := make([]float64, max(0, len(g.readings)-1))
	byGroup := map[int][]float64{}
	for i := range level {
		level[i] = max(g.readings[i], g.readings[i+1])
		byGroup[groupOf(i)] = append(byGroup[groupOf(i)], level[i])
	}
	band := quietBand * slices.Min(g.readings)
	limit := map[int]float64{}
	for grp, levels := range byGroup {
		limit[grp] = max(band, percentile(levels, 1.0/3))
		if len(levels) < minGatedOps {
			limit[grp] = math.Inf(1)
		}
	}
	quiet := make([]bool, len(level))
	for i := range quiet {
		quiet[i] = level[i] <= limit[groupOf(i)]
	}
	return quiet
}
