// Command dashcrawl crawls a database for one web application and writes
// the fragment index to disk as a checksummed snapshot file (the format
// durable data dirs checkpoint into):
//
//	dashcrawl -dataset fooddb -out search.idx
//	dashcrawl -dataset medium -query Q2 -alg stepwise -out q2.idx
//
// Datasets: fooddb (the paper's running example) or a TPC-H scale
// (small/medium/large) with -query Q1|Q2|Q3.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	dash "repro"
	"repro/internal/crawl"
	"repro/internal/harness"
	"repro/internal/relation"
	"repro/internal/tpch"
	"repro/internal/webapp"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dashcrawl:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dashcrawl", flag.ContinueOnError)
	dataset := fs.String("dataset", "fooddb", "fooddb | small | medium | large")
	query := fs.String("query", "Q2", "application query for TPC-H datasets (Q1|Q2|Q3)")
	alg := fs.String("alg", "integrated", "crawl algorithm: stepwise | integrated")
	seed := fs.Int64("seed", 42, "dataset generator seed")
	out := fs.String("out", "dash.idx", "output index file")
	reduce := fs.Int("reduce", 0, "reduce tasks per MR job (0 = GOMAXPROCS)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	db, app, err := setup(*dataset, *query, *seed)
	if err != nil {
		return err
	}
	var algorithm crawl.Algorithm
	switch *alg {
	case "stepwise":
		algorithm = crawl.AlgStepwise
	case "integrated":
		algorithm = crawl.AlgIntegrated
	default:
		return fmt.Errorf("unknown algorithm %q", *alg)
	}

	fmt.Printf("crawling %s with %s (%s)…\n", db.Name, app.Name, algorithm)
	output, row, err := harness.RunCrawl(context.Background(), db, app, algorithm,
		crawl.Options{ReduceTasks: *reduce}, *dataset)
	if err != nil {
		return err
	}
	for _, p := range row.Phases {
		fmt.Printf("  %-9s %8v  shuffle %6.1f MB\n", p.Name,
			p.Metrics.Wall.Round(time.Millisecond),
			float64(p.Metrics.IntermediateBytes)/1e6)
	}

	bound, err := app.Bound()
	if err != nil {
		return err
	}
	idx, graphRow, err := harness.BuildGraph(output, bound, app.Name)
	if err != nil {
		return err
	}
	fmt.Printf("fragment index: %d fragments, %d keywords, %d graph edges (built in %v)\n",
		idx.NumFragments(), idx.NumKeywords(), idx.NumEdges(),
		graphRow.BuildTime.Round(time.Millisecond))

	if err := dash.SaveIndex(context.Background(), idx, *out); err != nil {
		return err
	}
	info, err := os.Stat(*out)
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d bytes)\n", *out, info.Size())
	return nil
}

// setup resolves a dataset name into a database and bound application.
func setup(dataset, query string, seed int64) (*relation.Database, *webapp.Application, error) {
	if dataset == "fooddb" {
		return harness.Fooddb()
	}
	scale, err := tpch.ScaleByName(dataset)
	if err != nil {
		return nil, nil, err
	}
	return harness.Workload{Scale: scale, Seed: seed, Query: query}.Setup()
}
