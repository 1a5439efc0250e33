// Package dash is a search engine for database-generated dynamic web pages
// (db-pages), reproducing "Dash: A Novel Search Engine for Database-
// Generated Dynamic Web Pages" (Lee, Bankar, Zheng, Chow, Wang — ICDCS
// 2012).
//
// Db-pages are created on the fly by a web application from a backend
// database in response to query strings, so conventional crawlers never see
// them. Dash instead reverse-engineers the application: Analyze extracts
// its parameterized project-select-join query from servlet-style source;
// Build crawls the database with MapReduce-based algorithms, deriving
// disjoint db-page fragments and a fragment index (inverted fragment index
// + fragment graph); and Open serves it behind a Handle whose Search
// assembles fragments into the k most relevant db-pages, returning the
// URLs that regenerate them.
//
// Quickstart:
//
//	app, _ := dash.Analyze(servletSource, "http://example.com/Search")
//	_ = app.Bind(db)
//	idx, stats, _ := dash.Build(ctx, db, app, dash.BuildOptions{})
//	eng, _ := dash.Open(ctx, idx, app) // takes ownership of idx
//	results, _ := eng.Search(ctx, dash.Request{
//	    Keywords: []string{"burger"}, K: 2, SizeThreshold: 20,
//	})
//	for _, r := range results {
//	    fmt.Println(r.URL) // e.g. http://example.com/Search?c=American&l=10&u=12
//	}
//
// # One topology, optional layers
//
// Open returns a Handle — the Searcher + Maintainer contract plus the
// status, durability, and replication reads — over one serving topology:
// the fragment space partitioned across S >= 1 shards by equality-group
// key (WithShards; S = 1 by default). Searches pin one immutable snapshot
// per shard and gather a global top-k with corpus-wide IDF — byte-identical
// to a search over the unpartitioned index at S = 1 always, and at any S
// whenever K does not truncate the result stream; deltas route to their
// shards and publish per shard. Every other capability is an optional layer on
// the same handle — a result cache and admission control in front of the
// search path (WithResultCache, WithAdmissionControl), a durable store
// under the write path (WithDataDir), leader-side read routing
// (WithReplicas), or a journal tail in place of the write path
// (OpenReplica) — and an absent layer answers its methods explicitly
// (CacheBypass, a nil DurabilityStats, ErrReplicaReadOnly, ...) instead of
// hiding behind a type assertion. Every method takes a context.Context
// first: searches honor cancellation cooperatively mid-assembly, batch
// fan-outs abandon queued work, and a cancelled apply publishes nothing in
// the failing cycle.
//
// # Serving while the database changes
//
// A db-page index is only useful while it tracks the database, so the
// handle serves lock-free searches against immutable epoch-swap snapshots
// while a writer folds database changes into the next snapshot and
// publishes it atomically. Searches in flight keep their pinned snapshot;
// new searches see the new version.
//
//	live, _ := dash.Open(ctx, idx, app) // takes ownership of idx
//	go serve(live)                 // live.Search from any goroutine
//
//	// Rows changed in the database: re-crawl only the affected
//	// partitions and swap in the patched index version.
//	report, _ := live.Recrawl(ctx, db, []dash.FragmentID{
//	    {relation.String("American"), relation.Int(9)},
//	})
//	fmt.Println(report.Total.Updated, "fragments refreshed")
//
// Recrawl derives a Delta (insert/remove/update per fragment) by executing
// the application query pinned to each affected partition; Apply publishes
// a Delta built by any other means. Both are transactional per shard: on
// error — a cancelled context included — the failing shard's serving
// snapshot is unchanged.
//
// When changes arrive faster than they must become visible, batch them:
// ApplyBatch (or the Queue/Flush pair) coalesces any number of deltas into
// one published snapshot per touched shard, paying a single publish — and
// a single copy-on-write pass over each touched fragment — for the whole
// batch.
//
// # Scaling across cores
//
// When one shard can no longer absorb the write rate — or one snapshot
// walk per query leaves cores idle — raise the shard count:
//
//	sharded, _ := dash.Open(ctx, idx, app, dash.WithShards(8))
//
// Assembly never crosses shards (an equality group lives on one shard),
// searches scatter over the shards concurrently, and deltas apply
// concurrently with no global write lock. See ARCHITECTURE.md's "Public
// API" section for the layer rules.
package dash

import (
	"context"
	"fmt"
	"time"

	"repro/internal/crawl"
	"repro/internal/durable"
	"repro/internal/fragindex"
	"repro/internal/fragment"
	"repro/internal/relation"
	"repro/internal/search"
	"repro/internal/webapp"
)

// Re-exported types: the facade is intentionally thin so downstream code
// can also import the internal packages' documentation vocabulary.
type (
	// Application is an analyzed web application: its parameterized PSJ
	// query plus bidirectional query-string logic.
	Application = webapp.Application
	// Binding maps an HTTP query-string field to a query parameter.
	Binding = webapp.Binding
	// Index is the fragment index (inverted fragment index + fragment
	// graph).
	Index = fragindex.Index
	// Request parameterizes one search: keywords W, result count k, and
	// db-page size threshold s.
	Request = search.Request
	// Result is one suggested db-page with its URL and relevance score.
	Result = search.Result
	// BatchResult is one request's outcome within a SearchBatch.
	BatchResult = search.BatchResult
	// FragRef identifies a fragment within an Index.
	FragRef = fragindex.FragRef
	// FragmentID identifies a fragment: its selection-attribute values.
	FragmentID = fragment.ID
	// Delta is a batch of fragment changes derived from database updates.
	Delta = crawl.Delta
	// FragmentChange is one fragment's insert/remove/update within a Delta.
	FragmentChange = crawl.FragmentChange
	// ApplyStats reports what one delta application did and cost.
	ApplyStats = fragindex.ApplyStats
	// ApplyReport is the Maintainer contract's apply result: summed totals
	// plus what each touched shard published.
	ApplyReport = fragindex.ShardedApplyStats
)

// Delta change operations, re-exported for building Deltas by hand.
const (
	OpInsertFragment = crawl.OpInsertFragment
	OpRemoveFragment = crawl.OpRemoveFragment
	OpUpdateFragment = crawl.OpUpdateFragment
)

// Algorithm selects the crawling/indexing strategy.
type Algorithm string

// Available crawl algorithms. AlgReference crawls without MapReduce using
// the in-process relational evaluator — the right choice for small embedded
// deployments; the MR algorithms reproduce the paper's §V and scale with
// cores.
const (
	AlgStepwise   Algorithm = Algorithm(crawl.AlgStepwise)
	AlgIntegrated Algorithm = Algorithm(crawl.AlgIntegrated)
	AlgReference  Algorithm = "reference"
)

// Database is the relational substrate Dash crawls; construct one with the
// relation package or a generator like internal/tpch.
type Database = relation.Database

// BuildOptions configures Build.
type BuildOptions struct {
	// Algorithm defaults to AlgIntegrated (the paper's fastest).
	Algorithm Algorithm
	// Parallelism, MapTasks, and ReduceTasks tune the MapReduce engine;
	// zero values default to GOMAXPROCS.
	Parallelism int
	MapTasks    int
	ReduceTasks int
}

// BuildStats reports what Build produced and what it cost.
type BuildStats struct {
	Algorithm Algorithm
	// Phases carries per-phase MapReduce metrics (empty for
	// AlgReference): SW-Jn/SW-Grp/SW-Idx or INT-Jn/INT-Ext/INT-Cnsd.
	Phases     []crawl.Phase
	Fragments  int
	Keywords   int
	GraphEdges int
	// CrawlTime covers database crawling and fragment derivation;
	// IndexTime covers fragment-index (graph) construction.
	CrawlTime time.Duration
	IndexTime time.Duration
}

// Analyze reverse-engineers a servlet-style web application source into an
// Application (paper §III). Call Application.Bind with the database before
// Build.
func Analyze(src, baseURL string) (*Application, error) {
	return webapp.Analyze(src, baseURL)
}

// Build crawls the database and constructs the application's fragment
// index (paper §V). The application must be bound to db.
func Build(ctx context.Context, db *Database, app *Application, opts BuildOptions) (*Index, *BuildStats, error) {
	bound, err := app.Bound()
	if err != nil {
		return nil, nil, err
	}
	alg := opts.Algorithm
	if alg == "" {
		alg = AlgIntegrated
	}
	copts := crawl.Options{
		Parallelism: opts.Parallelism,
		MapTasks:    opts.MapTasks,
		ReduceTasks: opts.ReduceTasks,
	}
	crawlStart := time.Now()
	var out *crawl.Output
	switch alg {
	case AlgStepwise:
		out, err = crawl.Stepwise(ctx, db, bound, copts)
	case AlgIntegrated:
		out, err = crawl.Integrated(ctx, db, bound, copts)
	case AlgReference:
		out, err = crawl.Reference(db, bound)
	default:
		return nil, nil, fmt.Errorf("dash: unknown algorithm %q", alg)
	}
	if err != nil {
		return nil, nil, err
	}
	crawlTime := time.Since(crawlStart)

	spec, err := fragindex.SpecFromBound(bound)
	if err != nil {
		return nil, nil, err
	}
	idxStart := time.Now()
	idx, err := fragindex.Build(out, spec)
	if err != nil {
		return nil, nil, err
	}
	stats := &BuildStats{
		Algorithm:  alg,
		Phases:     out.Phases,
		Fragments:  idx.NumFragments(),
		Keywords:   idx.NumKeywords(),
		GraphEdges: idx.NumEdges(),
		CrawlTime:  crawlTime,
		IndexTime:  time.Since(idxStart),
	}
	return idx, stats, nil
}

// SaveIndex writes an index to path as a snapshot file — the checksummed
// DASHSNP1 format durable data dirs checkpoint into — atomically: on error
// the target is untouched. Tombstoned fragments are compacted away.
func SaveIndex(ctx context.Context, idx *Index, path string) error {
	return durable.WriteSnapshot(ctx, path, idx.Dump())
}

// LoadIndex reads an index written by SaveIndex, verifying every checksum
// and rebuilding the index with Restore's validation.
func LoadIndex(ctx context.Context, path string) (*Index, error) {
	d, err := durable.ReadSnapshot(ctx, path)
	if err != nil {
		return nil, err
	}
	return fragindex.Restore(d)
}
