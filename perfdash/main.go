// Command perfdash is the repository benchmark: an open-loop load generator
// that launches real dashserve processes — a durable leader and one
// journal-tailing replica — drives them over HTTP at fixed arrival rates
// on a seeded schedule, times every request from when it was due, and
// checks every answer. A separate traced run (-trace 1) splits requests
// by layer by timing calls into each layer's public functions.
//
// Run it from the repository root through its wrapper, which builds
// dashserve and this load generator into .bench_build/ first:
//
//	bash perfdash/run.sh --workload search-miss --seed 1 --seconds 26 --trace 0
//	bash perfdash/run.sh --workload all --seed 1 --seconds 26
//
// The last line of standard output is one JSON object
// {"correct","attempted","failed","metrics"}; with -trace 0 the metrics
// are the bounded end-to-end ones, with -trace 1 the per-layer ones. The
// lines before it print every metric with its unit and sample count, the
// printed-only figures below, fail_frac, the load generator's lateness and
// backlog, and the run's environment: nproc, GOMAXPROCS, Go version,
// dataset, seed and the host's CPU steal. The exit code is 0 on a correct,
// valid run; 1 when any answer was wrong or any operation failed; 3 when
// the load generator's own timers fell behind its schedule (the run is invalid
// and reports no numbers); 2 on any other error.
//
// # Load shape
//
// Arrivals are Poisson at fixed rates drawn from the workload seed. Reads
// go to GOMAXPROCS = nproc workers, so at most nproc reads are in flight;
// writes go to one writer that sends them in sequence; one observer
// searches the replica for written markers. An operation due while its
// lane is busy waits inside the load generator, and that wait is part of its
// latency (no coordinated omission). Workers sleep with nanosleep(2):
// the Go runtime's timers wake on millisecond ticks, which would add up
// to a millisecond to every sub-millisecond request.
//
// The dataset is TPC-H "small" with query Q2 (10,440 fragments, 8,718
// keywords), generated with the servers' fixed dataset seed 42; the
// workload seed shapes only the request stream. The load generator builds the same
// corpus in-process (harness.Workload.Setup, crawl.Integrated,
// fragindex.Build) for its vocabulary, fragment IDs and reference answers;
// that build is not part of setup_s.
//
// A run of --seconds S is a 1 s unmeasured warm-up, the nominal-rate
// phase, a write phase of 300 writes at 40/s on workloads without nominal
// writes, then the read_max_rps ladder (S/5). Each workload's seed is the
// --seed argument.
//
// # Workloads
//
// Every workload runs a durable leader (-sync always) and one replica
// (-replica-of), so every end-to-end metric exists on every workload.
//
//   - search-miss: leader S=1, default 32 MiB result cache, reads at
//     400/s. Each read has 1-3 keywords from one DF band (the top, middle
//     or bottom tenth of the whole vocabulary), k and s from the Fig. 11
//     grid; the key space dwarfs the cache. Why: the engine, URL
//     formulation and HTTP do the work while the cache only churns, so
//     engine gains show here; it also covers the S=1 path.
//   - search-zipf: the same server; reads at 800/s follow Zipf (s=1.1) over
//     4000 requests whose results fit the cache. The population is ranked
//     by a fixed permutation of cost quantiles, so every seed puts equally
//     costly requests at the head. Why: the cache and HTTP/JSON dominate and
//     the engine is nearly idle; an engine gain predicts no change here.
//     It runs with --workload search-zipf or all but is not listed in
//     BENCHMARK.json: its requests are so cheap (0.3 ms, 0.2 ms of server
//     CPU) that host speed drift alone moved its read_p10_ms and
//     server_cpu_us_per_op by 19-27% (IQR/median over 10 seeds), past the
//     25% bound, in two of three 10-run sets.
//   - rw-replicated: leader S=3 checkpointing every 5 s (-gc-interval) and
//     routing reads to the replica (-replicas). Zipf reads at 100/s plus
//     single-fragment updates at 20/s, the fragment chosen by Zipf rank so
//     shard load skews however it falls. Each update keeps the fragment's
//     terms, bumps a hot keyword reads query and adds a unique marker term.
//     Why: write path, replication tail/apply, router, forward hop and S>1
//     in one mix, where the cache is invalidated rather than hit.
//
// # End-to-end metrics (-trace 0)
//
// Bounded (name, unit, better direction, bound in BENCHMARK.json):
//
//	setup_s                  s   lower  median of 3 launches, launch until both processes answer /v1/readyz
//	read_p10_ms              ms  lower  10th percentile read latency from due time, nominal phase
//	server_cpu_us_per_op     us  lower  leader+replica user+system CPU per operation of the nominal phase
//	server_cpu_us_per_write  us  lower  the same per write of the phase carrying the writes (nominal on rw-replicated)
//	peak_rss_mb              MB  lower  VmHWM of leader plus replica, read before the ladder
//
// Printed only: read_p50_ms and read_p99_ms; write_p10_ms, write_p50_ms
// and the highest write percentile the sample supports (ten samples
// beyond it), measured from due time to the /v1/admin/apply
// acknowledgement; repl_visible_p10/p50 and the highest supported
// percentile, the time from a write's acknowledgement until a search sent
// directly to the replica finds its marker; read_max_rps, the highest
// rung of a 5%-step rate ladder whose median read latency is within 5 ms
// with no failure and no standing backlog; fail_frac.
//
// Why those are not bounded: this benchmark was sized on a 2-vCPU guest
// whose hypervisor steals 1-50% of the CPU it asks for, varying from one
// run to the next. Steal piles onto waiting requests, so it moved medians
// and tails by 20-100% (IQR/median over seeds) between runs of the same
// code — past the widest bound (25%) a regression check may use — and the
// capacity knee as much. The 10th percentile (a request nothing got in the
// way of) and CPU time (which the kernel does not charge for stolen time)
// moved by 4-18%.
// read_max_rps uses a 5 ms median limit rather than a p99 limit for the
// same reason: the p99 floor from stalls is 8-13 ms at every rate.
//
// # Per-layer metrics (-trace 1) and the end-to-end metric each moves
//
// A traced run drives the same HTTP run (one launch) for the metrics read
// from response headers and /v1/admin/stats, then replays the seeded
// schedule in-process (2000 reads, 200 writes) through dash.Open with the
// workload's options plus direct calls into each layer, recording spans
// (name, start, end, parent, request id) in memory and writing them to
// .bench_build/trace/ at the end.
//
//	dashserve.overhead_us       us     p50 round trip minus X-Elapsed      -> read_p10_ms, server_cpu_us_per_op on search-zipf
//	dashserve.forward_frac      frac   reads proxied to the replica        -> read_p10_ms on rw-replicated
//	cache.hit_frac              frac   X-Cache hits over reads             -> read_p10_ms, server_cpu_us_per_op on search-zipf
//	cache.evictions_per_kreq    count  evictions per 1000 reads            explains cache.hit_frac on search-miss
//	cache.swept_per_write       count  swept entries per write             explains cache.hit_frac on rw-replicated
//	engine.postings_read        count  postings per read (Snapshot.Postings) explains engine.search_us
//	durable.bytes_per_write     B      leader data-dir growth per write    -> server_cpu_us_per_write
//	replic.lag_epochs           count  mean max per-shard replica lag      -> repl_visible (printed), router.replica_frac
//	replic.bootstrap_ms         ms     replica launch until ready          -> setup_s on rw-replicated
//	router.replica_frac         frac   routed reads a replica served       -> read_p10_ms on rw-replicated
//	loadgen.lateness_p99_us     us     p99 of start minus due time         run validity
//	loadgen.backlog_max         count  most operations due, not started    run validity
//	replic.tail_us              us     replic.Client.Tail, running leader  -> repl_visible (printed)
//	dash.search_us.p50/.p99     us     Handle.SearchStatus                 -> read_p10_ms on search-miss
//	dash.search_unexplained_us  us     dash.search minus cache.get and (on a miss) engine.search, p50
//	dash.apply_us               us     Handle.Apply on a durable handle    -> server_cpu_us_per_write on rw-replicated
//	dash.apply_unexplained_us   us     dash.apply minus fragindex.apply and durable.append, p50
//	cache.get_us                us     ResultCache.Get                     -> read_p10_ms on search-zipf
//	engine.search_us.p50/.p99   us     Engine.SearchSnapshot / ShardedEngine.SearchPinned -> read_p10_ms, server_cpu_us_per_op on search-miss
//	engine.search_us.hot/.warm/.cold us the same, p50 per DF band
//	engine.shard_skew           ratio  max/mean per-shard search time at S=3 -> read_p10_ms on rw-replicated
//	webapp.url_us               us     engine search with app minus without -> read_p10_ms on search-miss
//	fragindex.apply_us          us     LiveIndex/ShardedLiveIndex.Apply    -> server_cpu_us_per_write
//	fragindex.cloned_chunks     count  ApplyStats.ClonedChunks per write   explains fragindex.apply_us
//	durable.append_us           us     Store.Append under SyncAlways       -> server_cpu_us_per_write
//	durable.checkpoint_ms       ms     Store.Checkpoint                    -> server_cpu_us_per_op on rw-replicated
//	durable.init_ms             ms     Store.Init                          -> setup_s
//	setup.crawl_ms              ms     crawl.Integrated                    -> setup_s
//	setup.index_ms              ms     fragindex.Build                     -> setup_s
//	trace.overhead_frac         frac   traced replay wall time over untraced, minus 1
//
// Deliberately unmeasured: search.AdmissionController (a load generator with at
// most nproc reads in flight never builds server-side concurrency, so
// admission would never act) and the offline packages mapreduce,
// baseline, lint and faultfs.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// metric is one reported figure with its sample count.
type metric struct {
	name  string
	unit  string
	value float64
	n     int
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// maxTimerLate is how late the load generator's own timers may run (p99, over
// operations whose worker was idle) before the run is invalid: beyond it
// the generator, not the servers, shaped the schedule.
const maxTimerLate = 10 * time.Millisecond

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfdash", flag.ContinueOnError)
	root := fs.String("root", ".", "repository checkout the benchmark runs in")
	bin := fs.String("dashserve", "", "dashserve binary to launch")
	name := fs.String("workload", "", "workload name, or all")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 26, "measured seconds per run")
	trace := fs.Int("trace", 0, "1: report per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *bin == "" {
		log.Print("perfdash: -dashserve is required (run through perfdash/run.sh)")
		return 2
	}
	var ws []workload
	if *name == "all" {
		ws = workloads
	} else if w, ok := workloadByName(*name); ok {
		ws = []workload{w}
	} else {
		log.Printf("perfdash: unknown workload %q", *name)
		return 2
	}
	if *seconds < 12 {
		log.Printf("perfdash: -seconds %d leaves no time for the nominal phase (want >= 12)", *seconds)
		return 2
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	procs := newChildren()
	defer procs.stopAll()
	// On a signal, stop every child before exiting.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		if _, ok := <-sigs; ok {
			cancel()
			procs.stopAll()
			os.Exit(130)
		}
	}()
	defer func() {
		signal.Stop(sigs)
		close(sigs)
	}()

	// The load generator holds the corpus and a reference index; a high GC
	// target plus a collection before every phase (see drive) keeps its
	// collector from running while requests are being timed.
	debug.SetGCPercent(400)
	log.SetFlags(log.Ltime | log.Lmicroseconds)
	log.SetPrefix("perfdash: ")
	c, err := loadCorpus(ctx)
	if err != nil {
		log.Print(err)
		return 2
	}
	code := 0
	for _, w := range ws {
		cfg := config{
			root: *root, bin: *bin, w: w, seed: *seed,
			seconds: time.Duration(*seconds) * time.Second,
			trace:   *trace == 1,
			workers: runtime.GOMAXPROCS(0),
			setups:  3,
		}
		if cfg.trace {
			cfg.setups = 1
		}
		if rc := runWorkload(ctx, cfg, c, procs, stdout); rc > code {
			code = rc
		}
	}
	return code
}

func runWorkload(ctx context.Context, cfg config, c *corpus, procs *children, stdout io.Writer) int {
	dir := workDir(cfg.root, cfg.seed, cfg.w.name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Print(err)
		return 2
	}
	defer os.RemoveAll(dir)
	ref, err := newReference(ctx, c, cfg.w.shards)
	if err != nil {
		log.Print(err)
		return 2
	}
	cl := newClient(cfg.workers)
	defer cl.close()
	r := &runner{
		cfg: cfg, c: c, g: newGenerator(cfg.w, c, cfg.seed), ref: ref, cl: cl, procs: procs,
		l: &launcher{w: cfg.w, bin: cfg.bin, workDir: dir, procs: procs, hc: cl.hc},
	}
	m, err := r.measure(ctx)
	procs.stopAll()
	if err != nil {
		log.Print(err)
		return 2
	}
	if m.pace.timerLate > maxTimerLate {
		log.Printf("run invalid: load generator timers ran %v late (p99) in the nominal phase, over the %v limit: no numbers reported",
			m.pace.timerLate, maxTimerLate)
		return 3
	}
	var metrics, printed []metric
	if cfg.trace {
		tm, err := r.traced(ctx, dir)
		if err != nil {
			log.Print(err)
			return 2
		}
		metrics = append(r.layerMetrics(m), tm...)
	} else {
		metrics, printed = r.endToEnd(m)
	}
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricJSON{}}
	fmt.Fprintf(stdout, "workload=%s seed=%d dataset=%s/%s nproc=%d GOMAXPROCS=%d go=%s seconds=%v trace=%v host_steal=%.1f%%\n",
		cfg.w.name, cfg.seed, datasetName, datasetQ, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(),
		cfg.seconds.Seconds(), cfg.trace, 100*m.cpu.stealShare())
	fmt.Fprintf(stdout, "  %-30s %12.6f %-6s (n=%d)\n", "fail_frac", float64(r.failed)/float64(max(r.attempted, 1)), "frac", r.attempted)
	fmt.Fprintf(stdout, "  %-30s %12.1f %-6s p99 start-due; timer p99 %.1f us; backlog max %d, at nominal end %d\n",
		"loadgen.lateness", us(m.pace.lateness), "us", us(m.pace.timerLate), m.pace.maxBacklog, m.pace.endBacklog)
	bad := false
	for _, mt := range metrics {
		fmt.Fprintf(stdout, "  %-30s %12.4f %-6s (n=%d)\n", mt.name, mt.value, mt.unit, mt.n)
		if math.IsNaN(mt.value) || math.IsInf(mt.value, 0) {
			bad = true
			log.Printf("metric %s has no value: its sample (n=%d) does not support it", mt.name, mt.n)
			continue
		}
		res.Metrics[mt.name] = metricJSON{Value: mt.value, Unit: mt.unit}
	}
	for _, mt := range printed {
		fmt.Fprintf(stdout, "  %-30s %12.4f %-6s (n=%d, printed only)\n", mt.name, mt.value, mt.unit, mt.n)
	}
	for _, e := range r.errs {
		log.Printf("failure: %s", e)
	}
	if bad {
		return 2
	}
	b, err := json.Marshal(res)
	if err != nil {
		log.Print(err)
		return 2
	}
	fmt.Fprintln(stdout, string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

// endToEnd computes the end-to-end metrics from the HTTP run: the bounded
// ones the JSON result carries, and the medians, tails and capacity that
// are printed only (see the package doc for why): the 10th percentile,
// the cost of a request nothing got in the way of, and server CPU per
// operation stay steady on a host whose CPU is stolen in bursts, medians
// and tails do not.
func (r *runner) endToEnd(m *httpMeasure) (bounded, printed []metric) {
	reads := m.nominal.readLatencies()
	ack, vis := m.writes.writeLatencies()
	bounded = []metric{
		{"setup_s", "s", median(m.setups), len(m.setups)},
		{"read_p10_ms", "ms", reads.p(0.1), len(reads)},
		{"server_cpu_us_per_op", "us", us(m.serverCPU) / float64(len(m.nominal.ops)), len(m.nominal.ops)},
		{"server_cpu_us_per_write", "us", us(m.writeCPU) / float64(len(ack)), len(ack)},
		{"peak_rss_mb", "MB", float64(m.rssBytes) / (1 << 20), 2},
	}
	printed = []metric{
		{"read_p50_ms", "ms", reads.p(0.5), len(reads)},
		tail("read", reads),
		{"write_p10_ms", "ms", ack.p(0.1), len(ack)},
		{"write_p50_ms", "ms", ack.p(0.5), len(ack)},
		tail("write", ack),
		{"repl_visible_p10_ms", "ms", vis.p(0.1), len(vis)},
		{"repl_visible_p50_ms", "ms", vis.p(0.5), len(vis)},
		tail("repl_visible", vis),
		{"read_max_rps", "1/s", m.maxRPS, len(m.rungs)},
	}
	return bounded, printed
}

// tail reports the highest of p99, p95 and p90 that the sample supports.
func tail(name string, s series) metric {
	for _, p := range []float64{0.99, 0.95, 0.9} {
		if supports(len(s), p) {
			return metric{fmt.Sprintf("%s_p%d_ms", name, int(p*100+0.5)), "ms", s.p(p), len(s)}
		}
	}
	return metric{name + "_p90_ms", "ms", math.NaN(), len(s)}
}

// layerMetrics computes the per-layer metrics the HTTP run observes.
func (r *runner) layerMetrics(m *httpMeasure) []metric {
	pd := m.nominal
	var overhead series
	nReads, hits, forwarded := 0, 0, 0
	var postings series
	for i, o := range pd.ops {
		if o.read == nil || pd.reads[i].err != nil {
			continue
		}
		out := pd.reads[i]
		nReads++
		if out.cache == "hit" {
			hits++
		}
		if out.forwarded {
			forwarded++
		}
		if out.elapsed >= 0 {
			overhead = append(overhead, us(out.rtt-out.elapsed))
		}
		n := 0
		for _, kw := range o.read.kws {
			n += len(r.c.snap.Postings(kw))
		}
		postings = append(postings, float64(n))
	}
	ns := m.nominalStats
	evictions := float64(ns[1].Cache.Evictions - ns[0].Cache.Evictions)
	var writes int
	for _, o := range m.writes.ops {
		if o.write != nil {
			writes++
		}
	}
	ws := m.writeStats
	swept := float64(ws[1].Cache.Swept - ws[0].Cache.Swept)
	replicaFrac := 0.0
	if a, b := ns[0].Replicas, ns[1].Replicas; a != nil && b != nil {
		routed, fallback := float64(b.Routed-a.Routed), float64(b.Fallback-a.Fallback)
		if routed+fallback > 0 {
			replicaFrac = routed / (routed + fallback)
		}
	}
	return []metric{
		{"dashserve.overhead_us", "us", overhead.p(0.5), len(overhead)},
		{"dashserve.forward_frac", "frac", frac(forwarded, nReads), nReads},
		{"cache.hit_frac", "frac", frac(hits, nReads), nReads},
		{"cache.evictions_per_kreq", "count", 1000 * evictions / float64(max(nReads, 1)), nReads},
		{"cache.swept_per_write", "count", swept / float64(max(writes, 1)), writes},
		{"engine.postings_read", "count", postings.mean(), len(postings)},
		{"durable.bytes_per_write", "B", float64(m.dirGrowth) / float64(max(writes, 1)), writes},
		{"replic.lag_epochs", "count", m.lag.mean(), len(m.lag)},
		{"replic.bootstrap_ms", "ms", 1000 * median(m.bootstraps), len(m.bootstraps)},
		{"router.replica_frac", "frac", replicaFrac, nReads},
		{"loadgen.lateness_p99_us", "us", us(m.pace.lateness), len(pd.samples)},
		{"loadgen.backlog_max", "count", float64(m.pace.maxBacklog), len(pd.samples)},
		{"replic.tail_us", "us", m.tail.p(0.5), len(m.tail)},
	}
}

func frac(a, b int) float64 { return float64(a) / float64(max(b, 1)) }
