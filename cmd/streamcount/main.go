// Command streamcount estimates the number of copies of a pattern H in a
// graph stream read from a file, using the paper's 3-pass algorithm
// (Theorem 17 insertion-only / Theorem 1 turnstile) or the 5r-pass
// low-degeneracy clique counter (Theorem 2).
//
// Input formats:
//
//	graph:   header "n m", then one "u v" line per edge (insertion-only)
//	updates: header "n", then "+ u v" / "- u v" lines (turnstile)
//
// A comma-separated -pattern list submits every pattern to one engine over
// the stream: all estimators ride the same shared replays instead of 3
// passes each. Failures are per-query — the whole run is not aborted by one
// bad pattern; a result table with an error column is printed and the exit
// status is nonzero if any query failed.
//
// Without -trials and -lower, a pattern count and a -cliques count both
// search over lower-bound guesses L = m^ρ(H), m^ρ(H)/2, … (cf. Lemma 21),
// stopping at the first estimate that reaches its guess; the reported
// passes, queries and space cover every guess.
//
// The process cancels cleanly: -timeout bounds the total run, and a SIGINT
// (Ctrl-C) or SIGTERM aborts in-flight replays between update batches; both
// surface as "canceled" errors in the result table.
//
// With -watch the command follows the stream instead of replaying it once:
// the input is fed into a live appendable stream — the input file in
// -watch-batch chunks, or update lines from stdin with -input - — and each
// pattern becomes a standing query that prints one result row per watch
// event as ingestion advances. By default events coalesce to the newest
// version (-watch-every evaluates every published version instead). The
// command exits when the input is exhausted and every watch has reported
// the final version; a SIGINT exits cleanly through the same graceful
// cancel path as the one-shot mode.
//
// Examples:
//
//	streamcount -input graph.txt -pattern triangle -trials 100000
//	streamcount -input graph.txt -pattern triangle,C5,K4 -trials 100000
//	streamcount -input updates.txt -updates -pattern C5 -trials 500000
//	streamcount -input graph.txt -cliques 4 -eps 0.3 -lower 50
//	streamcount -input graph.txt -cliques 3 -eps 0.4
//	streamcount -input huge.txt -updates -pattern C5 -timeout 30s
//	streamcount -watch -input graph.txt -pattern triangle -trials 20000
//	tail -f updates.txt | streamcount -watch -input - -pattern triangle -trials 20000
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"

	"streamcount"
	"streamcount/client"
	"streamcount/internal/cluster"
	"streamcount/internal/graph"
	"streamcount/internal/stream"
)

// options carries the parsed flags into run.
type options struct {
	input      string
	updates    bool
	pat        string
	trials     int
	eps        float64
	lower      float64
	cliques    int
	lambda     int64
	exactF     bool
	seed       int64
	paral      int
	timeout    time.Duration
	watch      bool
	watchEvery bool
	watchBatch int
	cluster    string
	stream     string
	list       bool
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("streamcount: ")
	var o options
	flag.StringVar(&o.input, "input", "", "input file (required)")
	flag.BoolVar(&o.updates, "updates", false, "input is a turnstile update list, not an edge list")
	flag.StringVar(&o.pat, "pattern", "triangle", "pattern name or comma-separated list: triangle, C<k>, K<r>, S<k>, P<k>, paw, diamond")
	flag.IntVar(&o.trials, "trials", 0, "parallel sampler instances (0: derive from -eps/-lower, or search over lower bounds without -lower)")
	flag.Float64Var(&o.eps, "eps", 0.1, "target relative error (used when -trials is 0)")
	flag.Float64Var(&o.lower, "lower", 0, "lower bound on #H (used when -trials is 0; 0: search over lower bounds)")
	flag.IntVar(&o.cliques, "cliques", 0, "if r >= 3: use the Theorem 2 low-degeneracy K_r counter")
	flag.Int64Var(&o.lambda, "lambda", 0, "degeneracy bound for -cliques (0: compute exactly)")
	flag.BoolVar(&o.exactF, "exact", false, "also print the exact count (loads the graph into memory)")
	flag.Int64Var(&o.seed, "seed", 1, "random seed")
	flag.IntVar(&o.paral, "parallel", 0, "pass-engine workers (0: GOMAXPROCS, 1: sequential; same estimate either way)")
	flag.DurationVar(&o.timeout, "timeout", 0, "overall deadline (0: none); exceeding it cancels in-flight replays")
	flag.BoolVar(&o.watch, "watch", false, "follow the input as a live stream: standing queries print one row per watch event ('-input -' reads update lines from stdin)")
	flag.BoolVar(&o.watchEvery, "watch-every", false, "with -watch: evaluate every published version in order instead of coalescing to the newest")
	flag.IntVar(&o.watchBatch, "watch-batch", 1024, "with -watch on a file input: updates appended per batch (each batch publishes one version)")
	flag.StringVar(&o.cluster, "cluster", "", "comma-separated streamcountd node addresses: query a sharded deployment instead of a local file (any node works as a seed; requests are routed to each stream's owner, following wrong_node redirects)")
	flag.StringVar(&o.stream, "stream", "", "with -cluster: the stream to query")
	flag.BoolVar(&o.list, "list", false, "with -cluster: print the cluster map and every stream across the cluster, then exit")
	flag.Parse()
	if o.input == "" && o.cluster == "" {
		flag.Usage()
		os.Exit(2)
	}
	if o.input == "-" && !o.watch {
		log.Print("-input - (stdin) requires -watch")
		os.Exit(2)
	}
	// All real work happens in run so its deferred cleanups (signal stop,
	// timeout cancel) execute on every path — a log.Fatal here in main used
	// to skip them on early errors (go vet -lostcancel territory).
	os.Exit(run(o))
}

func run(o options) int {
	// Context plumbing: Ctrl-C / SIGTERM cancel between update batches of
	// any in-flight pass; -timeout adds a deadline on top.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if o.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.timeout)
		defer cancel()
	}

	if o.cluster != "" {
		if o.watch || o.cliques >= 3 || o.exactF {
			log.Print("-cluster supports pattern-count queries and -list only")
			return 2
		}
		return runCluster(ctx, o)
	}

	if o.watch {
		if o.cliques >= 3 {
			log.Print("-watch supports pattern counting only, not -cliques")
			return 2
		}
		return runWatch(ctx, o)
	}

	st, err := readStream(o.input, o.updates)
	if err != nil {
		log.Print(err)
		return 1
	}

	if o.cliques >= 3 {
		if !runCliques(ctx, st, o) {
			return 1
		}
		return 0
	}

	names := splitPatterns(o.pat)
	if len(names) == 0 {
		log.Print("no pattern given")
		return 1
	}
	if !runPatterns(ctx, st, names, o) {
		return 1
	}
	return 0
}

// runCluster queries a sharded streamcountd deployment through the routing
// client: any listed node works as a seed, and every request is sent to the
// queried stream's owning node, following wrong_node redirects across
// transfers. -list prints the cluster map and the union of every node's
// streams instead of querying.
func runCluster(ctx context.Context, o options) int {
	cl, err := client.NewCluster(splitPatterns(o.cluster))
	if err != nil {
		log.Print(err)
		return 1
	}
	if o.list {
		return listCluster(ctx, cl)
	}
	if o.stream == "" {
		log.Print("-cluster needs -stream (or -list)")
		return 2
	}
	names := splitPatterns(o.pat)
	if len(names) == 0 {
		log.Print("no pattern given")
		return 1
	}

	version, err := cl.StreamVersion(ctx, o.stream)
	if err != nil {
		log.Print(err)
		return 1
	}

	rows := make([]row, len(names))
	done := make(chan int, len(names))
	for i, name := range names {
		rows[i].name = name
		p, err := streamcount.PatternByName(name)
		if err != nil {
			rows[i].err = err
			done <- i
			continue
		}
		rows[i].p = p
		go func(i int, p *streamcount.Pattern) {
			rows[i].est, rows[i].err = streamcount.DoOn(ctx, cl, o.stream, o.countQuery(p, i))
			done <- i
		}(i, p)
	}
	for range names {
		<-done
	}

	fmt.Printf("stream     %s@v%d\n\n", o.stream, version)
	w := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "pattern\trho\testimate\tpasses\ttrials\tspace(words)\terror")
	ok := true
	for _, r := range rows {
		if r.err != nil {
			ok = false
			rho := "-"
			if r.p != nil {
				rho = fmt.Sprintf("%.1f", r.p.Rho())
			}
			fmt.Fprintf(w, "%s\t%s\t-\t-\t-\t-\t%s\n", r.name, rho, errLabel(r.err))
			continue
		}
		fmt.Fprintf(w, "%s\t%.1f\t%.1f\t%d\t%d\t%d\t\n",
			r.name, r.p.Rho(), r.est.Value, r.est.Passes, r.est.Trials, r.est.SpaceWords)
	}
	w.Flush()
	if !ok {
		return 1
	}
	return 0
}

// listCluster prints the adopted cluster map and the union of every node's
// stream listing.
func listCluster(ctx context.Context, cl *client.Cluster) int {
	m, err := cl.ClusterMap(ctx)
	if err != nil {
		log.Print(err)
		return 1
	}
	fmt.Printf("cluster map v%d (%d nodes, %d vnodes)\n", m.Version, len(m.Nodes), m.VNodes)
	for _, n := range m.Nodes {
		fmt.Printf("  %s\t%s\n", n.ID, n.Addr)
	}
	streams, err := cl.Streams(ctx)
	if err != nil {
		log.Print(err)
		return 1
	}
	// Re-deriving placement client-side matches the servers exactly: same
	// map, same hash, same owner.
	ring, err := cluster.FromWire(m)
	if err != nil {
		log.Print(err)
		return 1
	}
	fmt.Printf("streams (%d):\n", len(streams))
	for _, s := range streams {
		owner := ring.Owner(s).ID
		if _, ok := m.Overrides[s]; ok {
			owner += " (override)"
		}
		fmt.Printf("  %s\t%s\n", s, owner)
	}
	return 0
}

// countQuery is the query for the i-th named pattern: the 3-pass counter,
// or, given neither -trials nor -lower, the same counter under the search
// over lower-bound guesses (AutoQuery).
func (o options) countQuery(p *streamcount.Pattern, i int) streamcount.TypedQuery[*streamcount.CountResult] {
	opts := []streamcount.QueryOption{
		streamcount.WithTrials(o.trials),
		streamcount.WithEpsilon(o.eps),
		streamcount.WithLowerBound(o.lower),
		streamcount.WithSeed(o.seed + int64(i)),
		streamcount.WithParallelism(o.paral),
	}
	if o.trials == 0 && o.lower == 0 {
		return streamcount.AutoQuery(p, opts...)
	}
	return streamcount.CountQuery(p, opts...)
}

func splitPatterns(s string) []string {
	var names []string
	for _, name := range strings.Split(s, ",") {
		if name = strings.TrimSpace(name); name != "" {
			names = append(names, name)
		}
	}
	return names
}

// row is one line of the result table: a served estimate or an error.
type row struct {
	name string
	p    *streamcount.Pattern
	est  *streamcount.CountResult
	err  error
}

// runPatterns serves every named pattern through one engine over the stream
// — concurrent queries share replays — and prints a result table. Failures
// (unknown pattern, bad budget, cancellation) become per-query error rows
// instead of aborting the run; it returns false if any query failed.
func runPatterns(ctx context.Context, st streamcount.Stream, names []string, o options) bool {
	e := streamcount.NewEngine(st, streamcount.WithAdmissionWindow(50*time.Millisecond))
	defer e.Close()

	rows := make([]row, len(names))
	done := make(chan int, len(names))
	for i, name := range names {
		rows[i].name = name
		p, err := streamcount.PatternByName(name)
		if err != nil {
			rows[i].err = err
			done <- i
			continue
		}
		rows[i].p = p
		go func(i int, p *streamcount.Pattern) {
			rows[i].est, rows[i].err = streamcount.Do(ctx, e, o.countQuery(p, i))
			done <- i
		}(i, p)
	}
	for range names {
		<-done
	}

	exactF := o.exactF
	var g *graph.Graph
	if exactF {
		var err error
		if g, err = stream.Materialize(st); err != nil {
			log.Print(err)
			exactF = false
		}
	}

	fmt.Printf("stream     n=%d, %d updates\n\n", st.N(), st.Len())
	w := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	header := "pattern\trho\testimate\tpasses\ttrials\tspace(words)"
	if exactF {
		header += "\texact"
	}
	header += "\terror"
	fmt.Fprintln(w, header)
	ok := true
	var sumPasses int64
	for _, r := range rows {
		if r.err != nil {
			ok = false
			rho := "-"
			if r.p != nil {
				rho = fmt.Sprintf("%.1f", r.p.Rho())
			}
			line := fmt.Sprintf("%s\t%s\t-\t-\t-\t-", r.name, rho)
			if exactF {
				line += "\t-"
			}
			fmt.Fprintf(w, "%s\t%s\n", line, errLabel(r.err))
			continue
		}
		sumPasses += r.est.Passes
		line := fmt.Sprintf("%s\t%.1f\t%.1f\t%d\t%d\t%d",
			r.name, r.p.Rho(), r.est.Value, r.est.Passes, r.est.Trials, r.est.SpaceWords)
		if exactF {
			line += fmt.Sprintf("\t%d", streamcount.ExactCount(g, r.p))
		}
		fmt.Fprintf(w, "%s\t\n", line)
	}
	w.Flush()
	fmt.Printf("\nshared passes  %d in %d generation(s) (vs %d if each query replayed privately)\n",
		e.Passes(), e.Generations(), sumPasses)
	return ok
}

// errLabel compresses an error for the table; typed sentinels keep it
// short.
func errLabel(err error) string {
	switch {
	case errors.Is(err, streamcount.ErrCanceled):
		return "canceled (timeout or signal)"
	default:
		return err.Error()
	}
}

// runCliques runs the Theorem 2 K_r counter. Without -lower it searches
// over lower-bound guesses; the graph is loaded into memory only to compute
// the degeneracy (-lambda 0) or the exact count (-exact).
func runCliques(ctx context.Context, st streamcount.Stream, o options) bool {
	r, lambda := o.cliques, o.lambda
	var g *graph.Graph
	if lambda == 0 || o.exactF {
		var err error
		g, err = stream.Materialize(st)
		if err != nil {
			log.Print(err)
			return false
		}
	}
	if lambda == 0 {
		lambda, _ = streamcount.Degeneracy(g)
	}
	est, err := streamcount.Run(ctx, st, streamcount.CliqueQuery(r,
		streamcount.WithLambda(lambda),
		streamcount.WithEpsilon(o.eps),
		streamcount.WithLowerBound(o.lower),
		streamcount.WithSeed(o.seed),
		streamcount.WithParallelism(o.paral),
	))
	if err != nil {
		log.Printf("K%d: %s", r, errLabel(err))
		return false
	}
	fmt.Printf("pattern    K%d (degeneracy λ=%d)\n", r, lambda)
	fmt.Printf("estimate   %.1f\n", est.Value)
	fmt.Printf("passes     %d (bound 5r = %d per lower-bound guess)\n", est.Passes, 5*r)
	fmt.Printf("space      %d words\n", est.SpaceWords)
	if o.exactF {
		p, _ := streamcount.PatternByName(fmt.Sprintf("K%d", r))
		fmt.Printf("exact      %d\n", streamcount.ExactCount(g, p))
	}
	return true
}

func readStream(path string, updateFormat bool) (streamcount.Stream, error) {
	if updateFormat {
		// File-backed streams are parsed once; every pass replays their
		// binary spill under $TMPDIR (8 B + 1 bit per update, which is RAM
		// when /tmp is tmpfs), so a stream larger than memory needs a
		// $TMPDIR on disk.
		return stream.OpenFile(path)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, err := streamcount.ReadGraph(f)
	if err != nil {
		return nil, err
	}
	return streamcount.StreamFromGraph(g), nil
}
