// Command experiments prints the text table of each experiment in DESIGN.md
// §5 to stdout (the paper has no empirical section; §5 defines the suite from
// its theorems).
//
// Examples:
//
//	experiments            # run everything
//	experiments -run E03   # one experiment
//	experiments -seed 7
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"streamcount/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	var (
		run  = flag.String("run", "all", "experiment ID (E01..E13) or 'all'")
		seed = flag.Int64("seed", 2022, "random seed")
	)
	flag.Parse()

	ids := experiments.IDs()
	if *run != "all" {
		ids = []string{*run}
	}
	for _, id := range ids {
		start := time.Now()
		if err := experiments.Run(id, *seed, os.Stdout); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("(%s took %.1fs)\n\n", id, time.Since(start).Seconds())
	}
}
