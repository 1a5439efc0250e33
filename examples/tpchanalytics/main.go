// Tpchanalytics runs the paper's evaluation workload at small scale: it
// generates a TPC-H-like dataset, crawls application query Q2 with both the
// stepwise and the integrated algorithm (paper §V), compares their phase
// costs, and then exercises top-k search across hot, warm, and cold
// keywords (paper §VII-B).
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	dash "repro"
	"repro/internal/harness"
	"repro/internal/tpch"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx := context.Background()
	scale := tpch.Small
	db := tpch.Generate(scale, 42)
	fmt.Printf("dataset %s:\n", db.Name)
	for _, st := range db.Stats() {
		fmt.Printf("  %-10s %7d rows %10d bytes\n", st.Name, st.Rows, st.Bytes)
	}

	app, err := tpch.App("Q2")
	if err != nil {
		return err
	}
	if err := app.Bind(db); err != nil {
		return err
	}
	fmt.Printf("\napplication %s: %s\n", app.Name, app.Query)

	// Crawl with both algorithms and compare (Fig. 10 at one cell).
	var idx *dash.Index
	for _, alg := range []dash.Algorithm{dash.AlgStepwise, dash.AlgIntegrated} {
		built, stats, err := dash.Build(ctx, db, app, dash.BuildOptions{Algorithm: alg})
		if err != nil {
			return err
		}
		fmt.Printf("\n%s: %v crawl + %v index, %d fragments\n",
			alg, stats.CrawlTime.Round(time.Millisecond),
			stats.IndexTime.Round(time.Millisecond), stats.Fragments)
		for _, p := range stats.Phases {
			fmt.Printf("  %-9s %8v  %6.1f MB shuffled\n", p.Name,
				p.Metrics.Wall.Round(time.Millisecond),
				float64(p.Metrics.IntermediateBytes)/1e6)
		}
		idx = built
	}

	// Keyword temperature sweep (Fig. 11 at one cell). The bands and their
	// example keywords' document frequencies are read before Open takes
	// ownership of the index.
	bands := harness.KeywordBands(idx.Snapshot(), 10)
	sweep := []struct {
		name string
		kws  []string
		df   int
	}{
		{"cold", bands.Cold, idx.DF(bands.Cold[0])},
		{"warm", bands.Warm, idx.DF(bands.Warm[0])},
		{"hot", bands.Hot, idx.DF(bands.Hot[0])},
	}
	engine, err := dash.Open(context.Background(), idx, app)
	if err != nil {
		return err
	}
	fmt.Printf("\nsearch latency by keyword temperature (k=10, s=200):\n")
	for _, band := range sweep {
		var total time.Duration
		var results int
		for _, kw := range band.kws {
			start := time.Now()
			rs, err := engine.Search(context.Background(), dash.Request{
				Keywords: []string{kw}, K: 10, SizeThreshold: 200,
			})
			if err != nil {
				return err
			}
			total += time.Since(start)
			results += len(rs)
		}
		fmt.Printf("  %-5s avg %10v  (%d keywords, %.1f results each; example %q df=%d)\n",
			band.name, (total / time.Duration(len(band.kws))).Round(time.Microsecond),
			len(band.kws), float64(results)/float64(len(band.kws)),
			band.kws[0], band.df)
	}

	// One concrete search, URLs included.
	kw := bands.Hot[0]
	results, err := engine.Search(context.Background(), dash.Request{Keywords: []string{kw}, K: 3, SizeThreshold: 200})
	if err != nil {
		return err
	}
	fmt.Printf("\ntop-3 db-pages for hot keyword %q:\n", kw)
	for i, r := range results {
		fmt.Printf("  %d. %s (score %.6f, %d keywords)\n", i+1, r.URL, r.Score, r.Size)
	}
	return nil
}
