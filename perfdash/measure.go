package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/replic"
)

// httpMeasure is everything one run measured through the real servers.
type httpMeasure struct {
	setups, bootstraps []float64 // seconds, one per launch
	nominal            *phaseData
	writes             *phaseData // the phase whose writes feed the write metrics
	rungs              []*phaseData
	maxRPS             float64
	rssBytes           int64
	pace               pacing // the nominal phase's

	// Per-layer observations; lag and tail are sampled in traced runs only.
	nominalStats, writeStats [2]leaderStats
	dirGrowth                int64
	lag                      series
	tail                     series        // µs per Client.Tail against the leader
	cpu                      cpuTimes      // host-wide, nominal phase
	serverCPU                time.Duration // both children, nominal phase
	writeCPU                 time.Duration // both children, the phase carrying the writes
}

// measure launches the topology cfg.setups times, timing each set-up,
// and drives the last one through every phase of the workload.
func (r *runner) measure(ctx context.Context) (*httpMeasure, error) {
	m := &httpMeasure{}
	var t *topology
	for i := 0; i < r.cfg.setups; i++ {
		var err error
		if t, err = r.l.launch(ctx); err != nil {
			return nil, err
		}
		m.setups = append(m.setups, t.setup.Seconds())
		m.bootstraps = append(m.bootstraps, t.bootstrap.Seconds())
		log.Printf("launch %d: set-up %.3fs (replica bootstrap %.3fs)", i+1, t.setup.Seconds(), t.bootstrap.Seconds())
		if i < r.cfg.setups-1 {
			r.l.stop(t)
		}
	}
	defer r.l.stop(t)

	w := r.cfg.w
	p := w.phases(r.cfg.seconds)
	verify := r.g.verifySet(100)
	r.verifyServers(ctx, t, verify)

	warm := r.drive(ctx, t, r.g.phase("warm", p.warm, w.readRate, 0), p.warm, false)
	r.checkSampled(ctx, warm)

	log.Printf("nominal: %v at %.0f reads/s + %.0f writes/s", p.nominal, w.readRate, w.nominalWrites)
	cpu0 := readCPU()
	busy0, err := t.cpu()
	if err != nil {
		return nil, err
	}
	m.nominal, err = r.tracked(ctx, t, m, &m.nominalStats, w.nominalWrites > 0, func() *phaseData {
		return r.drive(ctx, t, r.g.phase("nominal", p.nominal, w.readRate, w.nominalWrites), p.nominal, true)
	})
	if err != nil {
		return nil, err
	}
	m.pace = m.nominal.pace
	m.cpu = readCPU().sub(cpu0)
	busy1, err := t.cpu()
	if err != nil {
		return nil, err
	}
	m.serverCPU = busy1 - busy0
	// Before any write, every answer must match the reference exactly.
	if w.nominalWrites == 0 {
		r.checkSampled(ctx, m.nominal)
	}

	m.writes, m.writeCPU = m.nominal, m.serverCPU
	if p.writes > 0 {
		log.Printf("writes: %v at %.0f writes/s", p.writes, w.writePhaseRate)
		if busy0, err = t.cpu(); err != nil {
			return nil, err
		}
		m.writes, err = r.tracked(ctx, t, m, &m.writeStats, true, func() *phaseData {
			return r.drive(ctx, t, r.g.phase("writes", p.writes, 0, w.writePhaseRate), p.writes, true)
		})
		if err != nil {
			return nil, err
		}
		if busy1, err = t.cpu(); err != nil {
			return nil, err
		}
		m.writeCPU = busy1 - busy0
	} else {
		m.writeStats = m.nominalStats
	}
	// Memory is read before the ladder: how far the ladder climbs, and so
	// how much transient garbage the servers hold, varies from run to run.
	if m.rssBytes, err = t.peakRSS(); err != nil {
		return nil, err
	}

	m.maxRPS = r.maxRate(ctx, t, p.ladder, func(pd *phaseData) { m.rungs = append(m.rungs, pd) })
	log.Printf("ladder: read_max_rps %.0f after %d rungs", m.maxRPS, len(m.rungs))

	// Every write has been acknowledged in sequence: once the replica has
	// caught up, both servers must answer exactly like the reference with
	// the same writes applied.
	if err := r.converge(ctx, t); err != nil {
		r.count(err)
	} else if err := r.ref.apply(ctx, r.g.writes); err != nil {
		return nil, err
	} else {
		r.verifyServers(ctx, t, append(verify, r.g.markerReads(50)...))
	}

	if r.cfg.trace {
		if m.tail, err = timeTail(ctx, t, r.cfg.w.shards); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// tracked runs one phase, reading the leader's stats before and after it;
// for a phase carrying writes it also records the leader's data-dir
// growth and, in traced runs, samples the replica's lag.
func (r *runner) tracked(ctx context.Context, t *topology, m *httpMeasure, stats *[2]leaderStats, writes bool, run func() *phaseData) (*phaseData, error) {
	var err error
	if stats[0], err = r.leaderStats(ctx, t); err != nil {
		return nil, err
	}
	before, sizeErr := dirSize(t.dataDir)
	stop := func() {}
	if writes && r.cfg.trace {
		stop = r.sampleLag(ctx, t, &m.lag)
	}
	pd := run()
	stop()
	if stats[1], err = r.leaderStats(ctx, t); err != nil {
		return nil, err
	}
	if writes && sizeErr == nil {
		after, err := dirSize(t.dataDir)
		if err != nil {
			return nil, err
		}
		m.dirGrowth = after - before
	}
	return pd, nil
}

func (r *runner) leaderStats(ctx context.Context, t *topology) (leaderStats, error) {
	var ls leaderStats
	err := getJSON(ctx, r.cl.hc, t.leader.url+"/v1/admin/stats", &ls)
	return ls, err
}

// sampleLag polls both servers' stats every 100ms on its own connection
// until the returned stop function is called, collecting the largest
// per-shard epoch lag of each poll.
func (r *runner) sampleLag(ctx context.Context, t *topology, out *series) (stop func()) {
	hc := newClient(1)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer hc.close()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			var ls leaderStats
			var rs replicaStats
			if getJSON(ctx, hc.hc, t.leader.url+"/v1/admin/stats", &ls) != nil ||
				getJSON(ctx, hc.hc, t.replica.url+"/v1/admin/stats", &rs) != nil {
				continue
			}
			if lag, ok := lagOf(ls, rs); ok {
				*out = append(*out, float64(lag))
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// timeTail times replic.Client.Tail against the running leader: a fetch
// of each shard's last few journal records, as a catching-up replica
// would issue it.
func timeTail(ctx context.Context, t *topology, shards int) (series, error) {
	cl := replic.NewClient(t.leader.url, nil)
	var ls leaderStats
	hc := newClient(1)
	defer hc.close()
	if err := getJSON(ctx, hc.hc, t.leader.url+"/v1/admin/stats", &ls); err != nil {
		return nil, err
	}
	var out series
	for i := 0; i < 60; i++ {
		shard := i % shards
		epoch := ls.Durability.PerShard[shard].DurableEpoch
		from := uint64(0)
		if epoch > 8 {
			from = epoch - 8
		}
		start := time.Now()
		_, err := cl.Tail(ctx, shard, from, 0, 0)
		if err != nil && from > 0 {
			// The cursor predates the last checkpoint: fetch from the head.
			start = time.Now()
			_, err = cl.Tail(ctx, shard, epoch, 0, 0)
		}
		if err != nil {
			return nil, fmt.Errorf("tail shard %d: %w", shard, err)
		}
		out = append(out, us(time.Since(start)))
	}
	return out, nil
}

// workDir is the run's scratch directory inside the checkout.
func workDir(root string, seed int64, name string) string {
	return filepath.Join(root, ".bench_build", "run", fmt.Sprintf("%s-%d-%d", name, seed, time.Now().UnixNano()))
}

// cpuTimes are the host-wide CPU tick counters of /proc/stat.
type cpuTimes struct{ busy, idle, steal float64 }

// stealShare is the share of the CPU time this machine asked for that the
// hypervisor gave to someone else: the run's noise condition.
func (c cpuTimes) stealShare() float64 {
	if c.busy+c.steal == 0 {
		return 0
	}
	return c.steal / (c.busy + c.steal)
}

func readCPU() cpuTimes {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	f := strings.Fields(strings.SplitN(string(b), "\n", 2)[0])
	var v []float64
	for _, x := range f[1:] {
		n, _ := strconv.ParseFloat(x, 64) // a malformed counter reads as 0: steal is reported, not relied on
		v = append(v, n)
	}
	if len(v) < 8 {
		return cpuTimes{}
	}
	return cpuTimes{busy: v[0] + v[1] + v[2] + v[5] + v[6], idle: v[3] + v[4], steal: v[7]}
}

func (a cpuTimes) sub(b cpuTimes) cpuTimes {
	return cpuTimes{a.busy - b.busy, a.idle - b.idle, a.steal - b.steal}
}
