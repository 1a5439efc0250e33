package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/crawl"
	"repro/internal/fragindex"
	"repro/internal/fragment"
	"repro/internal/harness"
	"repro/internal/relation"
	"repro/internal/tpch"
	"repro/internal/webapp"
)

// Dataset the servers and the load generator both build. The dataset seed is fixed
// (dashserve's default) so every run serves the same corpus; the workload
// seed only shapes the request stream.
const (
	datasetName = "small"
	datasetQ    = "Q2"
	datasetSeed = 42
)

// Band names the document-frequency band a read's keywords come from.
type band int8

const (
	bandHot band = iota
	bandWarm
	bandCold
	numBands
)

func (b band) String() string { return [...]string{"hot", "warm", "cold"}[b] }

// corpus is the load generator's own build of the served corpus: the vocabulary
// by DF band, every fragment's identifier and term counts, and the crawl
// output further indexes are built from.
type corpus struct {
	app   *webapp.Application
	spec  fragindex.Spec
	out   *crawl.Output
	snap  *fragindex.Snapshot // the unmodified corpus, for posting counts
	bands [numBands][]string
	// frags holds every live fragment in identifier order.
	frags []fragInfo
	// crawlTime and indexTime are the build's own timings.
	crawlTime, indexTime time.Duration
}

type fragInfo struct {
	id    fragment.ID
	idTxt []string // selection values as dashserve's apply API takes them
	terms map[string]int64
}

// loadCorpus builds the corpus exactly as dashserve does at start-up:
// harness.Workload.Setup, then crawl.Integrated, then fragindex.Build.
func loadCorpus(ctx context.Context) (*corpus, error) {
	scale, err := tpch.ScaleByName(datasetName)
	if err != nil {
		return nil, err
	}
	db, app, err := harness.Workload{Scale: scale, Seed: datasetSeed, Query: datasetQ}.Setup()
	if err != nil {
		return nil, fmt.Errorf("dataset setup: %w", err)
	}
	return buildCorpus(ctx, db, app)
}

// buildCorpus crawls db through app and indexes the result.
func buildCorpus(ctx context.Context, db *relation.Database, app *webapp.Application) (*corpus, error) {
	c := &corpus{app: app}
	bound, err := app.Bound()
	if err != nil {
		return nil, err
	}
	if c.spec, err = fragindex.SpecFromBound(bound); err != nil {
		return nil, err
	}
	start := time.Now()
	if c.out, err = crawl.Integrated(ctx, db, bound, crawl.Options{}); err != nil {
		return nil, fmt.Errorf("crawl: %w", err)
	}
	c.crawlTime = time.Since(start)
	start = time.Now()
	idx, err := c.index()
	if err != nil {
		return nil, err
	}
	c.indexTime = time.Since(start)
	c.snap = idx.Snapshot()
	c.bands = dfBands(c.snap)
	if c.frags, err = fragmentsOf(idx.Dump()); err != nil {
		return nil, err
	}
	return c, nil
}

// index builds a fresh fragment index over the crawl output. Every handle
// takes ownership of its index, so each consumer gets its own.
func (c *corpus) index() (*fragindex.Index, error) {
	idx, err := fragindex.Build(c.out, c.spec)
	if err != nil {
		return nil, fmt.Errorf("index build: %w", err)
	}
	return idx, nil
}

// dfBands splits the whole vocabulary like Fig. 11 does (top, middle and
// bottom tenth by document frequency), keeping every keyword of each band
// instead of a 30-keyword sample.
func dfBands(s *fragindex.Snapshot) [numBands][]string {
	type kwDF struct {
		kw string
		df int
	}
	kws := s.Keywords()
	all := make([]kwDF, 0, len(kws))
	for _, kw := range kws {
		all = append(all, kwDF{kw, s.DF(kw)})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].df != all[j].df {
			return all[i].df > all[j].df
		}
		return all[i].kw < all[j].kw
	})
	tenth := len(all) / 10
	if tenth == 0 {
		tenth = 1
	}
	mid := len(all)/2 - tenth/2
	pick := func(seg []kwDF) []string {
		out := make([]string, len(seg))
		for i, e := range seg {
			out[i] = e.kw
		}
		return out
	}
	return [numBands][]string{
		bandHot:  pick(all[:tenth]),
		bandWarm: pick(all[mid : mid+tenth]),
		bandCold: pick(all[len(all)-tenth:]),
	}
}

// fragmentsOf recovers each fragment's identifier and term counts from the
// index's canonical dump.
func fragmentsOf(d *fragindex.Dump) ([]fragInfo, error) {
	frags := make([]fragInfo, len(d.FragKeys))
	for i, key := range d.FragKeys {
		id, err := fragment.ParseID(key)
		if err != nil {
			return nil, fmt.Errorf("fragment key %q: %w", key, err)
		}
		txt := make([]string, len(id))
		for j, v := range id {
			txt[j] = v.Text()
		}
		frags[i] = fragInfo{id: id, idTxt: txt, terms: map[string]int64{}}
	}
	for k, kw := range d.Keywords {
		for _, p := range d.Postings[k] {
			frags[p.Frag].terms[kw] = p.TF
		}
	}
	return frags, nil
}
