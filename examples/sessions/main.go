// Engine: serve many estimator queries over one stream with shared
// replays, continuously. Queries submitted while the engine is busy (or
// within the admission window while it is idle) are grouped into one
// shared-replay generation: three patterns and a decision query ride the
// same three passes instead of each privately replaying the stream.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"sync"
	"time"

	"streamcount"
)

func main() {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(42))

	// One stream, shared by every query the engine serves.
	g := streamcount.ErdosRenyi(rng, 200, 2000)
	st := streamcount.StreamFromGraph(g)

	// A long-lived engine: Submit/Do may be called from any goroutine at
	// any time. The 50ms admission window groups our burst of queries into
	// one generation.
	e := streamcount.NewEngine(st, streamcount.WithAdmissionWindow(50*time.Millisecond))
	defer e.Close()

	names := []string{"triangle", "C5", "paw"}
	ests := make([]*streamcount.CountResult, len(names))
	var decision *streamcount.DistinguishResult

	var wg sync.WaitGroup
	for i, name := range names {
		p, err := streamcount.PatternByName(name)
		if err != nil {
			log.Fatal(err)
		}
		wg.Add(1)
		go func(i int, p *streamcount.Pattern) {
			defer wg.Done()
			est, err := streamcount.Do(ctx, e, streamcount.CountQuery(p,
				streamcount.WithTrials(50000),
				streamcount.WithSeed(int64(i+1)),
			))
			if err != nil {
				log.Fatal(err)
			}
			ests[i] = est
		}(i, p)
	}
	// Any mix of query kinds shares the replays: add a decision query too.
	triangle, _ := streamcount.PatternByName("triangle")
	wg.Add(1)
	go func() {
		defer wg.Done()
		dec, err := streamcount.Do(ctx, e, streamcount.DistinguishQuery(triangle, 100,
			streamcount.WithTrials(50000),
			streamcount.WithEpsilon(0.4),
			streamcount.WithSeed(9),
		))
		if err != nil {
			log.Fatal(err)
		}
		decision = dec
	}()
	wg.Wait()

	var sum int64
	for i, est := range ests {
		sum += est.Passes
		p, _ := streamcount.PatternByName(names[i])
		fmt.Printf("%-9s estimate %10.1f   exact %6d   query passes %d\n",
			names[i], est.Value, streamcount.ExactCount(g, p), est.Passes)
	}
	sum += decision.Estimate.Passes
	fmt.Printf("%-9s #T >= 1.4*100? %v (estimate %.1f)   query passes %d\n",
		"decide", decision.Above, decision.Estimate.Value, decision.Estimate.Passes)

	fmt.Printf("\nshared passes over the stream: %d in %d generation(s) (private replays would cost %d)\n",
		e.Passes(), e.Generations(), sum)
}
