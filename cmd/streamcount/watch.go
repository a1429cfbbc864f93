package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"streamcount"
	"streamcount/internal/stream"
)

// watchSource is a live input: the vertex count plus a feeder that pushes
// update batches into the engine until the input is exhausted or ctx fires.
type watchSource struct {
	n    int64
	feed func(ctx context.Context, app func([]streamcount.Update) error) error
}

// fileSource replays the input file into batches of o.watchBatch updates.
func fileSource(o options) (*watchSource, error) {
	st, err := readStream(o.input, o.updates)
	if err != nil {
		return nil, err
	}
	sl, err := stream.Collect(st)
	if err != nil {
		return nil, err
	}
	ups := sl.Updates()
	batch := o.watchBatch
	if batch <= 0 {
		batch = 1024
	}
	return &watchSource{
		n: st.N(),
		feed: func(ctx context.Context, app func([]streamcount.Update) error) error {
			for i := 0; i < len(ups); i += batch {
				if ctx.Err() != nil {
					return nil // signal/timeout: stop feeding, exit cleanly
				}
				if err := app(ups[i:min(i+batch, len(ups))]); err != nil {
					return err
				}
			}
			return nil
		},
	}, nil
}

// stdinSource reads the update-list format from stdin: a header line "n",
// then one "+ u v" / "- u v" (or bare "u v") line per update, each appended
// — and therefore published to the watches — as it arrives.
func stdinSource() (*watchSource, error) {
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("stdin: missing \"n\" header line")
	}
	head := strings.Fields(sc.Text())
	if len(head) == 0 {
		return nil, fmt.Errorf("stdin: empty header line, want \"n\"")
	}
	n, err := strconv.ParseInt(head[0], 10, 64)
	if err != nil || n <= 0 {
		return nil, fmt.Errorf("stdin: bad vertex count %q", head[0])
	}
	return &watchSource{
		n: n,
		feed: func(ctx context.Context, app func([]streamcount.Update) error) error {
			for sc.Scan() {
				if ctx.Err() != nil {
					return nil
				}
				line := strings.TrimSpace(sc.Text())
				if line == "" || strings.HasPrefix(line, "#") {
					continue
				}
				up, err := parseUpdateLine(line)
				if err != nil {
					return err
				}
				if err := app([]streamcount.Update{up}); err != nil {
					return err
				}
			}
			return sc.Err()
		},
	}, nil
}

func parseUpdateLine(line string) (streamcount.Update, error) {
	f := strings.Fields(line)
	op := streamcount.Insert
	switch {
	case len(f) == 3 && f[0] == "+":
		f = f[1:]
	case len(f) == 3 && f[0] == "-":
		op = streamcount.Delete
		f = f[1:]
	case len(f) == 2:
	default:
		return streamcount.Update{}, fmt.Errorf("bad update line %q, want \"+ u v\" / \"- u v\" / \"u v\"", line)
	}
	u, err1 := strconv.ParseInt(f[0], 10, 64)
	v, err2 := strconv.ParseInt(f[1], 10, 64)
	if err1 != nil || err2 != nil {
		return streamcount.Update{}, fmt.Errorf("bad update line %q", line)
	}
	return streamcount.Update{Edge: streamcount.Edge{U: u, V: v}, Op: op}, nil
}

// runWatch is the -watch mode: standing queries over a live appendable
// stream fed from the input, one printed row per watch event. It returns 0
// when the input was followed to its end (or a signal stopped the run
// cleanly) and 1 when a pattern failed or a watch terminated with an error.
func runWatch(ctx context.Context, o options) int {
	src, err := sourceFor(o)
	if err != nil {
		log.Print(err)
		return 1
	}

	app, err := streamcount.NewAppendableStream(src.n, streamcount.AppendableOptions{})
	if err != nil {
		log.Print(err)
		return 1
	}
	e := streamcount.NewEngine(app)
	defer e.Close()

	names := splitPatterns(o.pat)
	if len(names) == 0 {
		log.Print("no pattern given")
		return 1
	}
	var wopts []streamcount.WatchOption
	if o.watchEvery {
		wopts = append(wopts, streamcount.WatchEveryVersion())
	}

	var (
		printMu sync.Mutex
		failed  atomic.Bool
		final   atomic.Int64 // final published version; valid once fed closes
		fed     = make(chan struct{})
		wg      sync.WaitGroup
	)
	final.Store(-1)
	fmt.Printf("watch      n=%d, %d pattern(s), %s\n\n", src.n, len(names), policyName(o.watchEvery))
	fmt.Printf("%-10s %10s %14s %7s %9s\n", "pattern", "version", "estimate", "passes", "trials")

	for i, name := range names {
		p, err := streamcount.PatternByName(name)
		if err != nil {
			log.Print(err)
			return 1
		}
		sub, err := streamcount.Watch(ctx, e, "", o.countQuery(p, i), wopts...)
		if err != nil {
			log.Print(err)
			return 1
		}
		wg.Add(1)
		go func(name string, sub *streamcount.Subscription[*streamcount.CountResult]) {
			defer wg.Done()
			defer sub.Close()
			last := int64(0) // version 0 (the empty prefix) is never evaluated
			fedCh := fed
			for {
				select {
				case ev, ok := <-sub.Events():
					if !ok {
						reportWatchEnd(&printMu, &failed, name, sub.Err())
						return
					}
					if ev.Err != nil {
						reportWatchEnd(&printMu, &failed, name, ev.Err)
						return
					}
					printMu.Lock()
					fmt.Printf("%-10s %10d %14.1f %7d %9d\n",
						name, ev.StreamVersion, ev.Result.Value, ev.Result.Passes, ev.Result.Trials)
					printMu.Unlock()
					last = ev.StreamVersion
					if fedCh == nil && last >= final.Load() {
						return // followed the input to its end
					}
				case <-fedCh:
					fedCh = nil
					if last >= final.Load() {
						return
					}
				}
			}
		}(name, sub)
	}

	// Feed the input on its own goroutine; every append publishes a version
	// the watches react to. The goroutine matters for cancellation: a stdin
	// feed blocks in Scan until the next line arrives, so a SIGINT while the
	// pipe is open but idle must not hang the exit path behind it — the
	// watches end through ctx, we stop waiting on the feed, and the blocked
	// read dies with the process.
	feedDone := make(chan error, 1)
	go func() {
		feedDone <- src.feed(ctx, func(ups []streamcount.Update) error {
			_, err := e.Append("", ups)
			return err
		})
	}()
	var feedErr error
	select {
	case feedErr = <-feedDone:
	case <-ctx.Done():
	}
	v, _ := e.StreamVersion("")
	final.Store(v)
	close(fed)
	if feedErr != nil {
		log.Print(feedErr)
		failed.Store(true)
	}
	wg.Wait()
	if failed.Load() {
		return 1
	}
	return 0
}

func sourceFor(o options) (*watchSource, error) {
	if o.input == "-" {
		return stdinSource()
	}
	return fileSource(o)
}

func policyName(every bool) string {
	if every {
		return "every version"
	}
	return "latest wins"
}

// reportWatchEnd prints a watch's terminal state. Cancellation (Ctrl-C,
// -timeout) is the clean way to stop following a stream, not a failure.
func reportWatchEnd(mu *sync.Mutex, failed *atomic.Bool, name string, err error) {
	mu.Lock()
	defer mu.Unlock()
	switch {
	case err == nil, errors.Is(err, streamcount.ErrWatchClosed):
	case errors.Is(err, streamcount.ErrCanceled):
		fmt.Printf("%-10s watch stopped (timeout or signal)\n", name)
	default:
		fmt.Printf("%-10s watch failed: %v\n", name, err)
		failed.Store(true)
	}
}
