package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	dash "repro"
	"repro/internal/durable"
	"repro/internal/fragindex"
	"repro/internal/search"
)

// span is one timed call into a layer. Spans of one operation share req;
// parent indexes the enclosing span (-1 for an operation's root).
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Note carries what the call reported: the cache outcome of a
	// facade search, the copy-on-write chunk count of an index apply.
	Note string `json:"note,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; a nil tracer records nothing, which is
// the untraced replay trace.overhead_frac compares against.
type tracer struct {
	t0    time.Time
	spans []span
}

func (tr *tracer) begin(name string, req, parent int) int {
	if tr == nil {
		return -1
	}
	tr.spans = append(tr.spans, span{Name: name, Req: req, Parent: parent, Start: int64(time.Since(tr.t0))})
	return len(tr.spans) - 1
}

func (tr *tracer) end(id int) {
	if id >= 0 {
		tr.spans[id].End = int64(time.Since(tr.t0))
	}
}

func (tr *tracer) note(id int, note string) {
	if id >= 0 {
		tr.spans[id].Note = note
	}
}

func (tr *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replay is the in-process stack the traced run drives: the facade
// handle opened with the workload's options, plus mirrors of its layers
// that the benchmark can call directly. Every write goes to each of them,
// so they stay at the same state.
type replay struct {
	h dash.Handle
	// engine mirrors the handle's topology: a live index (S=1) or a
	// sharded one, with the application and without it.
	live             *fragindex.LiveIndex
	sl               *fragindex.ShardedLiveIndex
	engine, noApp    *search.Engine
	sharded, shNoApp *search.ShardedEngine
	skew             *fragindex.ShardedLiveIndex // always S=3
	skewEngines      []*search.Engine
	cache            *search.ResultCache
	store            *durable.Store
	initTime         time.Duration
	closeHandle      func() error
}

const skewShards = 3

func newReplay(ctx context.Context, c *corpus, w workload, dir string) (*replay, error) {
	rp := &replay{cache: search.NewResultCache(32 << 20)}
	idx, err := c.index()
	if err != nil {
		return nil, err
	}
	h, err := dash.Open(ctx, idx, c.app, dash.WithShards(w.shards),
		dash.WithDataDir(filepath.Join(dir, "handle")),
		dash.WithSyncPolicy(dash.SyncPolicy{Mode: dash.SyncAlways}),
		dash.WithResultCache(32<<20))
	if err != nil {
		return nil, fmt.Errorf("open handle: %w", err)
	}
	rp.h = h
	rp.closeHandle = func() error { return nil }
	if cl, ok := h.(interface{ Close() error }); ok {
		rp.closeHandle = cl.Close
	}
	if idx, err = c.index(); err != nil {
		return nil, err
	}
	var dumps []*fragindex.Dump
	if w.shards == 1 {
		rp.live = fragindex.NewLive(idx)
		rp.engine, rp.noApp = search.New(rp.live, c.app), search.New(rp.live, nil)
		dumps = []*fragindex.Dump{rp.live.Dump()}
	} else {
		if rp.sl, err = fragindex.NewShardedLive(idx, w.shards); err != nil {
			return nil, err
		}
		rp.sharded, rp.shNoApp = search.NewSharded(rp.sl, c.app), search.NewSharded(rp.sl, nil)
		for i := 0; i < rp.sl.NumShards(); i++ {
			dumps = append(dumps, rp.sl.Shard(i).Dump())
		}
	}
	if idx, err = c.index(); err != nil {
		return nil, err
	}
	if rp.skew, err = fragindex.NewShardedLive(idx, skewShards); err != nil {
		return nil, err
	}
	for i := 0; i < skewShards; i++ {
		rp.skewEngines = append(rp.skewEngines, search.New(rp.skew.Shard(i), c.app))
	}
	if rp.store, err = durable.Open(ctx, filepath.Join(dir, "store"), durable.SyncPolicy{Mode: durable.SyncAlways}); err != nil {
		return nil, err
	}
	start := time.Now()
	if err := rp.store.Init(ctx, dumps); err != nil {
		return nil, err
	}
	rp.initTime = time.Since(start)
	return rp, nil
}

func (rp *replay) close() error {
	err := rp.closeHandle()
	if cerr := rp.store.Close(); err == nil {
		err = cerr
	}
	return err
}

// pin returns the mirror's current snapshots.
func (rp *replay) pin() []*fragindex.Snapshot {
	if rp.live != nil {
		return []*fragindex.Snapshot{rp.live.Snapshot()}
	}
	return rp.sl.PinAll()
}

func (rp *replay) search(ctx context.Context, snaps []*fragindex.Snapshot, req search.Request, app bool) ([]search.Result, error) {
	if rp.live != nil {
		if app {
			return rp.engine.SearchSnapshot(ctx, snaps[0], req)
		}
		return rp.noApp.SearchSnapshot(ctx, snaps[0], req)
	}
	if app {
		return rp.sharded.SearchPinned(ctx, snaps, req)
	}
	return rp.shNoApp.SearchPinned(ctx, snaps, req)
}

// traceLimits caps the replay: enough operations for stable medians and
// supported p99s without letting the traced run dominate the run time.
const (
	traceReads       = 2000
	traceWrites      = 200
	traceCheckpoints = 5
)

// replayOps replays the first operations of the schedule, closed-loop,
// through the facade handle and, directly, through each layer. With a nil
// tracer it makes exactly the same calls without recording.
func replayOps(ctx context.Context, rp *replay, ops []op, tr *tracer) error {
	reads, writes := 0, 0
	ckptEvery := traceWrites / traceCheckpoints
	cs, _ := rp.h.(dash.CachedSearcher)
	for id, o := range ops {
		if o.read != nil {
			if reads == traceReads {
				continue
			}
			reads++
			if err := replayRead(ctx, rp, cs, o.read, id, tr); err != nil {
				return err
			}
			continue
		}
		if writes == traceWrites {
			continue
		}
		writes++
		if err := replayWrite(ctx, rp, o.write, id, tr, writes%ckptEvery == 0); err != nil {
			return err
		}
	}
	return nil
}

func replayRead(ctx context.Context, rp *replay, cs dash.CachedSearcher, r *readReq, id int, tr *tracer) error {
	req := search.Request{Keywords: r.kws, K: r.k, SizeThreshold: r.s}
	root := tr.begin("read", id, -1)
	defer tr.end(root)

	s := tr.begin("dash.search", id, root)
	status := dash.CacheBypass
	var err error
	if cs != nil {
		_, status, err = cs.SearchStatus(ctx, req)
	} else {
		_, err = rp.h.Search(ctx, req)
	}
	tr.end(s)
	if err != nil {
		return fmt.Errorf("handle search %q: %w", r.query, err)
	}
	tr.note(s, string(status))

	snaps := rp.pin()
	norm := search.NormalizeRequest(req)
	pins := search.PinEpochs(nil, snaps, norm.Keywords)
	key := search.CacheKey(norm, pins)
	s = tr.begin("cache.get", id, root)
	_, hit := rp.cache.Get(key)
	tr.end(s)

	s = tr.begin("engine.search."+r.band.String(), id, root)
	res, err := rp.search(ctx, snaps, req, true)
	tr.end(s)
	if err != nil {
		return err
	}
	if !hit {
		rp.cache.Put(key, pins, res)
	}
	s = tr.begin("engine.search.noapp", id, root)
	if _, err := rp.search(ctx, snaps, req, false); err != nil {
		return err
	}
	tr.end(s)

	skew := rp.skew.PinAll()
	for i, e := range rp.skewEngines {
		s = tr.begin(fmt.Sprintf("engine.shard.%d", i), id, root)
		if _, err := e.SearchSnapshot(ctx, skew[i], req); err != nil {
			return err
		}
		tr.end(s)
	}
	return nil
}

func replayWrite(ctx context.Context, rp *replay, w *writeReq, id int, tr *tracer, checkpoint bool) error {
	root := tr.begin("write", id, -1)
	defer tr.end(root)

	s := tr.begin("dash.apply", id, root)
	_, err := rp.h.Apply(ctx, w.delta)
	tr.end(s)
	if err != nil {
		return fmt.Errorf("handle apply #%d: %w", w.seq, err)
	}

	var st fragindex.ApplyStats
	shard := 0
	s = tr.begin("fragindex.apply", id, root)
	if rp.live != nil {
		st, err = rp.live.Apply(ctx, w.delta)
	} else {
		var sst fragindex.ShardedApplyStats
		sst, err = rp.sl.Apply(ctx, w.delta)
		st = sst.Total
		if len(sst.PerShard) == 1 {
			shard = sst.PerShard[0].Shard
			st.Epoch = sst.PerShard[0].Epoch
		}
	}
	tr.end(s)
	if err != nil {
		return fmt.Errorf("mirror apply #%d: %w", w.seq, err)
	}
	tr.note(s, strconv.Itoa(st.ClonedChunks))

	s = tr.begin("durable.append", id, root)
	err = rp.store.Append(ctx, shard, w.delta, st.Epoch)
	tr.end(s)
	if err != nil {
		return fmt.Errorf("mirror append #%d: %w", w.seq, err)
	}
	if _, err := rp.skew.Apply(ctx, w.delta); err != nil {
		return err
	}
	if checkpoint {
		var d *fragindex.Dump
		if rp.live != nil {
			d = rp.live.Dump()
		} else {
			d = rp.sl.Shard(shard).Dump()
		}
		s = tr.begin("durable.checkpoint", id, root)
		err = rp.store.Checkpoint(ctx, shard, d)
		tr.end(s)
		if err != nil {
			return fmt.Errorf("mirror checkpoint: %w", err)
		}
	}
	return nil
}

// traceOps is the schedule the traced run replays: the same seeded phases
// the timed run drives, in order, without the rate ladder.
func traceOps(c *corpus, w workload, seed int64, total time.Duration) []op {
	g := newGenerator(w, c, seed)
	p := w.phases(total)
	ops := g.phase("warm", p.warm, w.readRate, 0)
	ops = append(ops, g.phase("nominal", p.nominal, w.readRate, w.nominalWrites)...)
	if p.writes > 0 {
		ops = append(ops, g.phase("writes", p.writes, 0, w.writePhaseRate)...)
	}
	return ops
}

// traced replays the schedule in-process four times, each on a fresh
// stack — untraced and traced alternately, so that neither mode always
// runs on a colder machine — and derives the per-layer timings from the
// first traced replay's spans, which it also writes out.
func (r *runner) traced(ctx context.Context, dir string) ([]metric, error) {
	ops := traceOps(r.c, r.cfg.w, r.cfg.seed, r.cfg.seconds)
	var walls [2]time.Duration // untraced, traced
	var tr *tracer
	var initTime time.Duration
	for i := 0; i < 4; i++ {
		rp, err := newReplay(ctx, r.c, r.cfg.w, filepath.Join(dir, fmt.Sprintf("replay-%d", i)))
		if err != nil {
			return nil, err
		}
		var t *tracer
		if i%2 == 1 {
			t = &tracer{t0: time.Now()}
		}
		start := time.Now()
		err = replayOps(ctx, rp, ops, t)
		walls[i%2] += time.Since(start)
		if cerr := rp.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		if i == 1 {
			tr, initTime = t, rp.initTime
		}
	}
	path := filepath.Join(r.cfg.root, ".bench_build", "trace", fmt.Sprintf("%s-%d.jsonl", r.cfg.w.name, r.cfg.seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	log.Printf("trace: %d spans written to %s", len(tr.spans), path)
	return append(spanMetrics(tr.spans),
		metric{"durable.init_ms", "ms", ms(initTime), 1},
		metric{"setup.crawl_ms", "ms", ms(r.c.crawlTime), 1},
		metric{"setup.index_ms", "ms", ms(r.c.indexTime), 1},
		metric{"trace.overhead_frac", "frac", walls[1].Seconds()/walls[0].Seconds() - 1, 4},
	), nil
}

// spanMetrics derives the traced per-layer metrics from one replay.
func spanMetrics(spans []span) []metric {
	byName := map[string]series{}
	type perReq struct {
		dash, get, engine, noApp, apply, frag, appendT time.Duration
		miss                                           bool
		shards                                         []time.Duration
	}
	reqs := map[int]*perReq{}
	var chunks series
	for _, s := range spans {
		pr := reqs[s.Req]
		if pr == nil {
			pr = &perReq{}
			reqs[s.Req] = pr
		}
		d := s.dur()
		switch {
		case s.Name == "dash.search":
			pr.dash, pr.miss = d, s.Note == "miss"
		case s.Name == "cache.get":
			pr.get = d
		case strings.HasPrefix(s.Name, "engine.search.") && s.Name != "engine.search.noapp":
			pr.engine = d
			byName["engine.search_us"] = append(byName["engine.search_us"], us(d))
		case s.Name == "engine.search.noapp":
			pr.noApp = d
		case strings.HasPrefix(s.Name, "engine.shard."):
			pr.shards = append(pr.shards, d)
		case s.Name == "dash.apply":
			pr.apply = d
		case s.Name == "fragindex.apply":
			pr.frag = d
			n, _ := strconv.ParseFloat(s.Note, 64) // replayWrite notes an integer
			chunks = append(chunks, n)
		case s.Name == "durable.append":
			pr.appendT = d
		}
		byName[s.Name] = append(byName[s.Name], us(d))
	}
	var unexplainedRead, unexplainedWrite, url, skew series
	ids := make([]int, 0, len(reqs))
	for id := range reqs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		pr := reqs[id]
		if pr.dash > 0 {
			rest := pr.dash - pr.get
			if pr.miss {
				rest -= pr.engine
			}
			unexplainedRead = append(unexplainedRead, us(rest))
			url = append(url, us(pr.engine-pr.noApp))
			var maxS, sum time.Duration
			for _, d := range pr.shards {
				sum += d
				if d > maxS {
					maxS = d
				}
			}
			if sum > 0 {
				skew = append(skew, float64(maxS)/(float64(sum)/float64(len(pr.shards))))
			}
		}
		if pr.apply > 0 {
			unexplainedWrite = append(unexplainedWrite, us(pr.apply-pr.frag-pr.appendT))
		}
	}
	ckpt := byName["durable.checkpoint"]
	for i := range ckpt {
		ckpt[i] /= 1000
	}
	dashSearch := byName["dash.search"]
	engine := byName["engine.search_us"]
	return []metric{
		{"dash.search_us.p50", "us", dashSearch.p(0.5), len(dashSearch)},
		{"dash.search_us.p99", "us", dashSearch.p(0.99), len(dashSearch)},
		{"dash.search_unexplained_us", "us", unexplainedRead.p(0.5), len(unexplainedRead)},
		{"dash.apply_us", "us", byName["dash.apply"].p(0.5), len(byName["dash.apply"])},
		{"dash.apply_unexplained_us", "us", unexplainedWrite.p(0.5), len(unexplainedWrite)},
		{"cache.get_us", "us", byName["cache.get"].p(0.5), len(byName["cache.get"])},
		{"engine.search_us.p50", "us", engine.p(0.5), len(engine)},
		{"engine.search_us.p99", "us", engine.p(0.99), len(engine)},
		{"engine.search_us.hot", "us", byName["engine.search.hot"].p(0.5), len(byName["engine.search.hot"])},
		{"engine.search_us.warm", "us", byName["engine.search.warm"].p(0.5), len(byName["engine.search.warm"])},
		{"engine.search_us.cold", "us", byName["engine.search.cold"].p(0.5), len(byName["engine.search.cold"])},
		{"engine.shard_skew", "ratio", skew.p(0.5), len(skew)},
		{"webapp.url_us", "us", url.p(0.5), len(url)},
		{"fragindex.apply_us", "us", byName["fragindex.apply"].p(0.5), len(byName["fragindex.apply"])},
		{"fragindex.cloned_chunks", "count", chunks.mean(), len(chunks)},
		{"durable.append_us", "us", byName["durable.append"].p(0.5), len(byName["durable.append"])},
		{"durable.checkpoint_ms", "ms", ckpt.p(0.5), len(ckpt)},
	}
}
