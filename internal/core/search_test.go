package core

import (
	"context"
	"math"
	"testing"

	"streamcount/internal/gen"
	"streamcount/internal/stream"
)

// TestCliqueSearchWithoutCliques: a clique job without a lower bound on a
// graph with no K_r — triangle-free or empty — rejects every guess from
// m^{3/2} down to the last one at or above 0.5, and reports that guess's
// estimate with the accounting of all of them, not an error.
func TestCliqueSearchWithoutCliques(t *testing.T) {
	empty, err := stream.NewSlice(10, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, st := range map[string]stream.Stream{"grid": stream.FromGraph(gen.Grid(6, 6)), "empty": empty} {
		j := Job{Kind: JobCliques, Clique: CliqueConfig{R: 3, Lambda: 2, Epsilon: 0.4, Seed: 24}}
		got, err := runCount(st, j)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var want CountResult
		var passes, queries, space int64
		for l := math.Max(math.Pow(float64(st.Len()), 1.5), 0.5); l >= 0.5; l /= 2 {
			j.Clique.LowerBound = l
			est, err := runCount(st, j)
			if err != nil {
				t.Fatal(err)
			}
			if est.Value >= l {
				t.Fatalf("%s: guess L=%g accepted with estimate %v", name, l, est.Value)
			}
			passes, queries, space = passes+est.Passes, queries+est.Queries, space+est.SpaceWords
			want = *est
		}
		want.Passes, want.Queries, want.SpaceWords = passes, queries, space
		if *got != want {
			t.Errorf("%s: search %+v, want the last guess with summed accounting %+v", name, *got, want)
		}
	}
}

// TestWatchCliqueSearchOnCheckpoint: a clique watch without a lower bound,
// served from the watch checkpoint, gives every event bit-identical to the
// standalone search over the same prefix at the derived seed.
func TestWatchCliqueSearchOnCheckpoint(t *testing.T) {
	ups := watchWorkload(t)
	app, err := stream.NewAppendable(200, stream.AppendableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(app, EngineOptions{})
	defer e.Close()
	j := Job{Kind: JobCliques, Clique: CliqueConfig{R: 3, Lambda: 12, Epsilon: 0.5, Seed: 25}}
	w, err := e.Watch(context.Background(), DefaultStream, j, WatchOptions{EveryVersion: true, Buffer: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	prev := 0
	for _, cut := range []int{len(ups) / 3, 2 * len(ups) / 3, len(ups)} {
		if _, err := e.Append(DefaultStream, ups[prev:cut]); err != nil {
			t.Fatal(err)
		}
		prev = cut
		assertEventMatchesStandalone(t, app, j, collectEvent(t, w))
	}
	if st := w.CheckpointStats(); st.CheckpointHits == 0 || st.ColdReplays != 0 {
		t.Errorf("checkpoint stats %+v: want every event served from the checkpoint", st)
	}
}
