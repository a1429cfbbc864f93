package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	"streamcount"
	"streamcount/internal/wire"
)

// TestQueryWireRoundTrip: every query kind, with no option and with each
// option alone and all together, encodes to a wire.Query that buildQuery
// turns back into a query encoding to the identical bytes. The client sends
// exactly that encoding and the server decodes it through buildQuery, so a
// field either side drops or defaults differently shows up here.
func TestQueryWireRoundTrip(t *testing.T) {
	p, err := streamcount.PatternByName("triangle")
	if err != nil {
		t.Fatal(err)
	}
	options := map[string]streamcount.QueryOption{
		"epsilon":     streamcount.WithEpsilon(0.25),
		"trials":      streamcount.WithTrials(1234),
		"max_trials":  streamcount.WithMaxTrials(5678),
		"lower_bound": streamcount.WithLowerBound(42.5),
		"edge_bound":  streamcount.WithEdgeBound(900),
		"seed":        streamcount.WithSeed(-7),
		"parallelism": streamcount.WithParallelism(3),
		"lambda":      streamcount.WithLambda(4),
	}
	kinds := map[string]func(...streamcount.QueryOption) streamcount.Query{
		"count":   func(o ...streamcount.QueryOption) streamcount.Query { return streamcount.CountQuery(p, o...) },
		"sample":  func(o ...streamcount.QueryOption) streamcount.Query { return streamcount.SampleQuery(p, o...) },
		"cliques": func(o ...streamcount.QueryOption) streamcount.Query { return streamcount.CliqueQuery(4, o...) },
		"auto":    func(o ...streamcount.QueryOption) streamcount.Query { return streamcount.AutoQuery(p, o...) },
		"distinguish": func(o ...streamcount.QueryOption) streamcount.Query {
			return streamcount.DistinguishQuery(p, 17.5, o...)
		},
	}
	all := make([]streamcount.QueryOption, 0, len(options))
	for _, o := range options {
		all = append(all, o)
	}
	for kind, build := range kinds {
		cases := map[string][]streamcount.QueryOption{"none": nil, "all": all}
		for name, o := range options {
			cases[name] = []streamcount.QueryOption{o}
		}
		for name, opts := range cases {
			q := build(opts...)
			want, err := json.Marshal(q)
			if err != nil {
				t.Fatalf("%s/%s: marshal: %v", kind, name, err)
			}
			var w wire.Query
			if err := json.Unmarshal(want, &w); err != nil {
				t.Fatalf("%s/%s: decode %s: %v", kind, name, want, err)
			}
			if w.Kind != kind {
				t.Errorf("%s/%s: wire kind %q", kind, name, w.Kind)
			}
			back, err := buildQuery(w, 0)
			if err != nil {
				t.Fatalf("%s/%s: buildQuery(%s): %v", kind, name, want, err)
			}
			got, err := json.Marshal(back)
			if err != nil {
				t.Fatalf("%s/%s: re-marshal: %v", kind, name, err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s/%s: round trip\n got %s\nwant %s", kind, name, got, want)
			}
		}
	}

	custom, err := streamcount.NewPattern("triangle", 3, [][2]int{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := json.Marshal(streamcount.CountQuery(custom)); !errors.Is(err, streamcount.ErrBadPattern) {
		t.Errorf("non-catalog pattern: marshal error %v, want ErrBadPattern", err)
	}
}
