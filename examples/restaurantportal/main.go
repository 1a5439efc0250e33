// Restaurantportal demonstrates the full deployment loop over live HTTP:
// it hosts the Search web application (the db-page generator), lets Dash
// crawl its backing database, runs a keyword search, then actually FETCHES
// the top suggested URL from the running server and verifies the returned
// db-page contains the queried keyword — the end-to-end promise of the
// paper's architecture (Fig. 4).
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"strings"
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
	db := fooddb.New()

	// Host the target web application on a local port.
	listener, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	baseURL := "http://" + listener.Addr().String() + "/Search"

	app, err := dash.Analyze(fooddb.ServletSource, baseURL)
	if err != nil {
		return err
	}
	if err := app.Bind(db); err != nil {
		return err
	}
	mux := http.NewServeMux()
	mux.Handle("/Search", app.Handler())
	server := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		if err := server.Serve(listener); err != http.ErrServerClosed {
			log.Printf("server: %v", err)
		}
	}()
	defer server.Close()
	fmt.Printf("web application serving db-pages at %s\n", baseURL)

	// Dash crawls the application's database (not the website!).
	idx, stats, err := dash.Build(context.Background(), db, app, dash.BuildOptions{})
	if err != nil {
		return err
	}
	fmt.Printf("crawled %d fragments without issuing a single HTTP request\n", stats.Fragments)

	// Keyword search: the result is a URL on the live server.
	engine, err := dash.Open(context.Background(), idx, app)
	if err != nil {
		return err
	}
	const keyword = "burger"
	results, err := engine.Search(context.Background(), dash.Request{
		Keywords: []string{keyword}, K: 2, SizeThreshold: 20,
	})
	if err != nil {
		return err
	}
	if len(results) == 0 {
		return fmt.Errorf("no results for %q", keyword)
	}
	for i, r := range results {
		fmt.Printf("result %d: %s (score %.4f)\n", i+1, r.URL, r.Score)
	}

	// Fetch the top URL and prove the db-page really contains the keyword.
	resp, err := http.Get(results[0].URL)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", results[0].URL, resp.StatusCode)
	}
	page := string(body)
	hits := strings.Count(strings.ToLower(page), keyword)
	if hits == 0 {
		return fmt.Errorf("suggested page does not contain %q — reproduction broken", keyword)
	}
	fmt.Printf("\nfetched %s\n", results[0].URL)
	fmt.Printf("HTTP %d, %d bytes, %q occurs %d times — the suggested URL generates the promised db-page\n",
		resp.StatusCode, len(body), keyword, hits)

	// Show a slice of the generated HTML table.
	if i := strings.Index(page, "<table"); i >= 0 {
		end := i + 400
		if end > len(page) {
			end = len(page)
		}
		fmt.Printf("\npage excerpt:\n%s…\n", page[i:end])
	}
	return nil
}
