// Quickstart walks the paper's running example end to end on the fooddb
// database (Fig. 2): analyze the Search servlet (Fig. 3), crawl the
// database into db-page fragments (Fig. 5), inspect the inverted fragment
// index (Fig. 6) and fragment graph (Fig. 9), and run the Example 7 top-k
// search for "burger".
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	dash "repro"
	"repro/internal/fooddb"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// 1. Reverse-engineer the web application (paper §III, Example 2).
	app, err := dash.Analyze(fooddb.ServletSource, fooddb.BaseURL)
	if err != nil {
		return err
	}
	fmt.Printf("analyzed application %q\n", app.Name)
	fmt.Printf("  reconstructed query: %s\n", app.Query)
	fmt.Printf("  query-string bindings:")
	for _, b := range app.Bindings {
		fmt.Printf(" %s→$%s", b.Field, b.Param)
	}
	fmt.Println()

	// 2. Crawl the database and build the fragment index (paper §V).
	db := fooddb.New()
	if err := app.Bind(db); err != nil {
		return err
	}
	idx, stats, err := dash.Build(context.Background(), db, app, dash.BuildOptions{
		Algorithm: dash.AlgIntegrated,
	})
	if err != nil {
		return err
	}
	fmt.Printf("\ncrawled %d fragments, %d keywords, %d graph edges (crawl %v, index %v)\n",
		stats.Fragments, stats.Keywords, stats.GraphEdges,
		stats.CrawlTime.Round(time.Microsecond), stats.IndexTime.Round(time.Microsecond))
	fmt.Println("fragments (Fig. 5 / Fig. 9 node weights):")
	for ref := 0; ref < stats.Fragments; ref++ {
		meta, err := idx.Meta(dash.FragRef(ref))
		if err != nil {
			return err
		}
		fmt.Printf("  %-15s %2d keywords\n", meta.ID, meta.Terms)
	}

	// 3. Top-k search (paper §VI, Example 7): keyword "burger", k=2, s=20.
	engine, err := dash.Open(context.Background(), idx, app)
	if err != nil {
		return err
	}
	results, err := engine.Search(context.Background(), dash.Request{
		Keywords: []string{"burger"}, K: 2, SizeThreshold: 20,
	})
	if err != nil {
		return err
	}
	fmt.Println("\ntop-2 db-pages for \"burger\" (s=20):")
	for i, r := range results {
		fmt.Printf("  %d. %s (score %.4f, %d keywords)\n", i+1, r.URL, r.Score, r.Size)
	}

	// 4. The suggested URLs really generate pages with the keyword: run
	// the application for the top query string.
	page, err := app.Execute(results[0].QueryString)
	if err != nil {
		return err
	}
	fmt.Printf("\ndb-page %s has %d rows:\n", results[0].QueryString, page.Len())
	for _, row := range page.Rows {
		fmt.Printf("  %v\n", row)
	}
	return nil
}
