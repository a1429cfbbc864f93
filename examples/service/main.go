// Service: drive the streamcountd HTTP API end to end — start the daemon's
// handler in-process, create a live stream, ingest edges from two racing
// clients, and query it concurrently over plain HTTP. Each response carries
// the stream version its admission generation pinned; rerunning a query
// with the same seed against the same version reproduces the estimate bit
// for bit, no matter how ingestion interleaved.
//
// Against a real daemon the client half is unchanged: start `streamcountd
// -addr :8470` and point base at it.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	"streamcount"
	"streamcount/internal/server"
)

func main() {
	log.SetFlags(0)

	// The daemon half, in-process: streamcountd does exactly this.
	srv, err := server.New(server.Options{Window: 10 * time.Millisecond})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	hs := &http.Server{Handler: srv}
	go hs.Serve(ln)
	base := "http://" + ln.Addr().String()
	fmt.Printf("daemon listening on %s\n\n", base)

	post := func(path string, body, out any) {
		data, _ := json.Marshal(body)
		resp, err := http.Post(base+path, "application/json", bytes.NewReader(data))
		if err != nil {
			log.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode >= 300 {
			var e struct {
				Error string `json:"error"`
			}
			json.NewDecoder(resp.Body).Decode(&e)
			log.Fatalf("POST %s: %s (%s)", path, resp.Status, e.Error)
		}
		if out != nil {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				log.Fatal(err)
			}
		}
	}

	// Create a versioned, append-only stream.
	post("/v1/streams", map[string]any{"name": "social", "n": 300}, nil)

	// A scale-free graph to ingest, split between two racing clients.
	rng := rand.New(rand.NewSource(7))
	g := streamcount.BarabasiAlbert(rng, 300, 12)
	var edges [][2]int64
	st := streamcount.StreamFromGraph(g)
	st.ForEachBatch(func(batch []streamcount.Update) error {
		for _, u := range batch {
			edges = append(edges, [2]int64{u.Edge.U, u.Edge.V})
		}
		return nil
	})
	fmt.Printf("ingesting %d edges from 2 clients while 3 queries run...\n\n", len(edges))

	type update struct {
		U int64 `json:"u"`
		V int64 `json:"v"`
	}
	var wg sync.WaitGroup
	ingest := func(part [][2]int64) {
		defer wg.Done()
		const batch = 250
		for i := 0; i < len(part); i += batch {
			j := min(i+batch, len(part))
			ups := make([]update, 0, j-i)
			for _, e := range part[i:j] {
				ups = append(ups, update{U: e[0], V: e[1]})
			}
			post("/v1/streams/social/edges", map[string]any{"updates": ups}, nil)
			// Pace the feed so the concurrent queries demonstrably pin
			// different versions of the growing log.
			time.Sleep(5 * time.Millisecond)
		}
	}
	wg.Add(2)
	go ingest(edges[:len(edges)/2])
	go ingest(edges[len(edges)/2:])

	// Concurrent queries during ingestion: each is served by a generation
	// pinned at some version of the growing log.
	type queryResult struct {
		StreamVersion int64 `json:"stream_version"`
		Count         struct {
			Value  float64 `json:"value"`
			M      int64   `json:"m"`
			Passes int64   `json:"passes"`
		} `json:"count"`
	}
	mid := make([]queryResult, 3)
	for i := range mid {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			time.Sleep(time.Duration(i) * 12 * time.Millisecond)
			post("/v1/queries", map[string]any{
				"stream": "social", "pattern": "triangle",
				"trials": 30000, "seed": 100 + i,
			}, &mid[i])
		}(i)
	}
	wg.Wait()

	fmt.Println("query   pinned version  estimate     m")
	for i, r := range mid {
		fmt.Printf("mid-%d   %14d  %8.1f  %4d\n", i, r.StreamVersion, r.Count.Value, r.Count.M)
	}

	// After ingestion: the same query twice pins the same final version and
	// reproduces the estimate bit for bit.
	var a, b queryResult
	q := map[string]any{"stream": "social", "pattern": "triangle", "trials": 30000, "seed": 1}
	post("/v1/queries", q, &a)
	post("/v1/queries", q, &b)
	exact := streamcount.ExactCount(g, mustPattern("triangle"))
	fmt.Printf("\nfinal   %14d  %8.1f  (repeat: %.1f, identical=%v, exact=%d)\n",
		a.StreamVersion, a.Count.Value, b.Count.Value, a.Count.Value == b.Count.Value, exact)

	// Graceful drain, exactly as a SIGTERM would do it.
	srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	hs.Shutdown(ctx)
	if err := srv.Close(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ndaemon drained cleanly")
}

func mustPattern(name string) *streamcount.Pattern {
	p, err := streamcount.PatternByName(name)
	if err != nil {
		panic(err)
	}
	return p
}
