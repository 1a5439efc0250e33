package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/crawl"
	"repro/internal/harness"
)

// workload is one traffic mix over one server topology. Every workload
// runs a durable leader plus one journal-tailing replica, so that every
// end-to-end metric — write acknowledgement and replica visibility
// included — is measured on every workload.
type workload struct {
	name string
	why  string
	// shards is the leader's -shards; routed adds -replicas so the leader
	// places reads on the replica; gcInterval is the leader's
	// -gc-interval, which on a durable leader is also its checkpoint
	// cadence.
	shards     int
	routed     bool
	gcInterval time.Duration
	// zipfReads draws reads from a fixed seeded population by Zipf rank
	// instead of fresh from the whole vocabulary.
	zipfReads bool
	// readRate is the nominal read arrival rate (1/s); nominalWrites is
	// the write rate alongside it. Workloads without nominal writes run
	// their writes in a trailing phase at writePhaseRate instead, so
	// writes never disturb their read figures.
	readRate       float64
	nominalWrites  float64
	writePhaseRate float64
	// ladderLo/ladderHi bound the read_max_rps ladder.
	ladderLo, ladderHi float64
}

var workloads = []workload{
	{
		name:           "search-miss",
		why:            "fresh keyword draws across all DF bands: the engine, URL formulation and HTTP do the work while the cache only churns",
		shards:         1,
		gcInterval:     30 * time.Second,
		readRate:       400,
		writePhaseRate: 40,
		ladderLo:       600,
		ladderHi:       8000,
	},
	{
		name:           "search-zipf",
		why:            "Zipf reads over a population that fits the cache: cache and HTTP/JSON dominate and the engine is nearly idle",
		shards:         1,
		gcInterval:     30 * time.Second,
		zipfReads:      true,
		readRate:       800,
		writePhaseRate: 40,
		ladderLo:       600,
		ladderHi:       16000,
	},
	{
		name:          "rw-replicated",
		why:           "S=3 durable leader routing Zipf reads to a replica under Zipf updates: write path, replication, router and forward hop",
		shards:        3,
		routed:        true,
		gcInterval:    5 * time.Second,
		zipfReads:     true,
		readRate:      100,
		nominalWrites: 20,
		ladderLo:      100,
		ladderHi:      3000,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// phases splits a run of the given length: a 1 s unmeasured warm-up, the
// nominal-rate phase, the read_max_rps ladder (a fifth of the run) and,
// for workloads without nominal writes, a trailing write phase long
// enough for writeTarget writes.
type phases struct {
	warm, nominal, ladder, writes time.Duration
}

func (w workload) phases(total time.Duration) phases {
	p := phases{warm: time.Second, ladder: total / 5}
	if w.writePhaseRate > 0 {
		p.writes = time.Duration(writeTarget / w.writePhaseRate * float64(time.Second))
	}
	p.nominal = total - p.warm - p.ladder - p.writes
	return p
}

// writeTarget is the write count a write phase aims for.
const writeTarget = 300

// readReq is one generated search.
type readReq struct {
	kws   []string
	k, s  int
	band  band
	query string // encoded query string for /v1/search
}

// writeReq is one generated single-fragment update. Each write keeps the
// fragment's original terms, carries every marker term earlier writes
// gave the fragment plus its own unique marker, and bumps one keyword
// that reads query (so cached results over it are superseded).
type writeReq struct {
	seq    int
	frag   int
	marker string
	delta  crawl.Delta
	body   []byte
}

// op is one scheduled operation: exactly one of read and write is set.
type op struct {
	due   time.Duration
	read  *readReq
	write *writeReq
}

// generator makes every input of a run from the workload seed. Phases
// must be drawn in the order they run: writes carry cumulative state
// (marker terms, sequence numbers).
type generator struct {
	w    workload
	c    *corpus
	seed int64
	// population is the Zipf read population, in rank order.
	population []*readReq
	// fragPerm maps a write's Zipf rank to the fragment it updates.
	fragPerm []int
	// markers lists each fragment's marker terms so far; writes lists
	// every write drawn, in sequence order; touch holds the hot keywords
	// of the population that writes bump.
	markers map[int][]string
	writes  []*writeReq
	touch   []string
}

// populationSize is the number of distinct requests Zipf reads draw
// from: large enough to be a real working set, small enough that every
// result fits the default 32 MiB result cache.
const populationSize = 4000

func newGenerator(w workload, c *corpus, seed int64) *generator {
	g := &generator{w: w, c: c, seed: seed, markers: map[int][]string{}}
	g.population = g.stratified(g.rng("population"))
	seen := map[string]bool{}
	for _, q := range g.population {
		for _, kw := range q.kws {
			if q.band == bandHot && !seen[kw] {
				seen[kw] = true
				g.touch = append(g.touch, kw)
			}
		}
	}
	sort.Strings(g.touch)
	g.fragPerm = g.rng("fragments").Perm(len(c.frags))
	return g
}

// stratified draws the Zipf population and ranks it so that every seed
// puts requests of the same cost quantile at the same Zipf rank: the
// requests are sorted by the postings they read, then dealt to ranks by
// one fixed permutation. Seeds still draw different keywords, but the
// head of the distribution — which carries most of the load — costs the
// same whichever seed is run.
func (g *generator) stratified(r *rand.Rand) []*readReq {
	pop := make([]*readReq, populationSize)
	for i := range pop {
		pop[i] = g.freshRead(r)
	}
	cost := func(q *readReq) int {
		n := 0
		for _, kw := range q.kws {
			n += len(g.c.snap.Postings(kw))
		}
		return n
	}
	sort.SliceStable(pop, func(i, j int) bool { return cost(pop[i]) < cost(pop[j]) })
	ranked := make([]*readReq, len(pop))
	for rank, q := range rand.New(rand.NewSource(populationSize)).Perm(len(pop)) {
		ranked[rank] = pop[q]
	}
	return ranked
}

// rng derives an independent stream per purpose, so adding draws to one
// phase never shifts another's.
func (g *generator) rng(purpose string) *rand.Rand {
	h := uint64(g.seed)*0x9E3779B97F4A7C15 + 1
	for _, b := range []byte(purpose) {
		h = (h ^ uint64(b)) * 0x100000001B3
	}
	return rand.New(rand.NewSource(int64(h)))
}

func (g *generator) freshRead(r *rand.Rand) *readReq {
	ks, ss := harness.Fig11Grid()
	b := band(r.Intn(int(numBands)))
	pool := g.c.bands[b]
	n := 1 + r.Intn(3)
	kws := make([]string, 0, n)
	for len(kws) < n {
		kw := pool[r.Intn(len(pool))]
		dup := false
		for _, have := range kws {
			dup = dup || have == kw
		}
		if !dup {
			kws = append(kws, kw)
		}
	}
	req := &readReq{kws: kws, k: ks[r.Intn(len(ks))], s: ss[r.Intn(len(ss))], band: b}
	req.query = url.Values{
		"q": {strings.Join(kws, " ")},
		"k": {strconv.Itoa(req.k)},
		"s": {strconv.Itoa(req.s)},
	}.Encode()
	return req
}

// phase draws a Poisson arrival stream of the given rates over dur.
func (g *generator) phase(name string, dur time.Duration, readRate, writeRate float64) []op {
	r := g.rng("phase/" + name)
	total := readRate + writeRate
	if total <= 0 {
		return nil
	}
	var zipf *rand.Zipf
	if g.w.zipfReads {
		zipf = rand.NewZipf(r, 1.1, 1, uint64(len(g.population)-1))
	}
	fragZipf := rand.NewZipf(r, 1.1, 4, uint64(len(g.fragPerm)-1))
	var ops []op
	t := 0.0
	for {
		t += r.ExpFloat64() / total
		due := time.Duration(t * float64(time.Second))
		if due >= dur {
			return ops
		}
		if r.Float64()*total < writeRate {
			ops = append(ops, op{due: due, write: g.nextWrite(r, g.fragPerm[fragZipf.Uint64()])})
			continue
		}
		if zipf != nil {
			ops = append(ops, op{due: due, read: g.population[zipf.Uint64()]})
		} else {
			ops = append(ops, op{due: due, read: g.freshRead(r)})
		}
	}
}

func (g *generator) nextWrite(r *rand.Rand, frag int) *writeReq {
	seq := len(g.writes)
	marker := fmt.Sprintf("zzpd%dx%d", uint64(g.seed), seq)
	g.markers[frag] = append(g.markers[frag], marker)
	f := g.c.frags[frag]
	terms := make(map[string]int64, len(f.terms)+len(g.markers[frag])+1)
	for kw, n := range f.terms {
		terms[kw] = n
	}
	for _, m := range g.markers[frag] {
		terms[m] = 1
	}
	terms[g.touch[r.Intn(len(g.touch))]]++
	var total int64
	for _, n := range terms {
		total += n
	}
	w := &writeReq{seq: seq, frag: frag, marker: marker}
	w.delta = crawl.Delta{Changes: []crawl.FragmentChange{{
		Op: crawl.OpUpdateFragment, ID: f.id, TermCounts: terms, TotalTerms: total,
	}}}
	type change struct {
		Op    string           `json:"op"`
		ID    []string         `json:"id"`
		Terms map[string]int64 `json:"terms"`
		Total int64            `json:"total"`
	}
	body, err := json.Marshal(map[string][]change{"changes": {{"update", f.idTxt, terms, total}}})
	if err != nil {
		panic(err) // maps of strings and integers always marshal
	}
	w.body = body
	g.writes = append(g.writes, w)
	return w
}

// verifySet is the fixed request sample checked against the reference
// before the load and again after every write has replicated: the most
// popular requests of the Zipf population plus fresh draws.
func (g *generator) verifySet(n int) []*readReq {
	r := g.rng("verify")
	out := append([]*readReq(nil), g.population[:n/2]...)
	for len(out) < n {
		out = append(out, g.freshRead(r))
	}
	return out
}

// markerReads searches for the markers of up to n written fragments.
func (g *generator) markerReads(n int) []*readReq {
	var out []*readReq
	step := len(g.writes)/n + 1
	for i := 0; i < len(g.writes); i += step {
		m := g.writes[i].marker
		out = append(out, &readReq{kws: []string{m}, k: 5, s: 1000, query: "q=" + m + "&k=5&s=1000"})
	}
	return out
}
