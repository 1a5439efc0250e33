package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"
)

// config is one invocation's settings.
type config struct {
	root, bin string
	w         workload
	seed      int64
	seconds   time.Duration
	trace     bool
	workers   int
	setups    int // launches timed for setup_s (the last one is driven)
}

// runner holds one run's state and its correctness tally.
type runner struct {
	cfg   config
	c     *corpus
	g     *generator
	ref   *reference
	cl    *client
	procs *children
	l     *launcher

	mu        sync.Mutex
	attempted int
	failed    int
	errs      []string
}

// count tallies one attempted operation.
func (r *runner) count(err error) {
	r.mu.Lock()
	r.attempted++
	r.mu.Unlock()
	if err != nil {
		r.fail(err)
	}
}

// fail marks an already-counted operation as failed (a wrong answer
// found after the fact).
func (r *runner) fail(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err.Error())
	}
}

// phaseData is one driven phase: the schedule, its timing and outcomes.
type phaseData struct {
	ops     []op
	samples []sample
	reads   []readOutcome
	writes  []writeOutcome
	pace    pacing
}

// drive runs ops open-loop against t's leader. Reads go to the leader
// (which may route them to the replica); writes go to the leader. With
// probe set, an observer outside the read and write lanes then searches
// the replica directly for each acknowledged write's marker until it is
// visible; it has one connection of its own and handles writes in
// acknowledgement order.
func (r *runner) drive(ctx context.Context, t *topology, ops []op, dur time.Duration, probe bool) *phaseData {
	// Collect the load generator's own garbage now, so its collector stays out of
	// the measured phase.
	runtime.GC()
	pd := &phaseData{ops: ops, reads: make([]readOutcome, len(ops)), writes: make([]writeOutcome, len(ops))}
	type acked struct {
		i  int
		at time.Time
	}
	nWrites := 0
	for _, o := range ops {
		if o.write != nil {
			nWrites++
		}
	}
	visible := make(chan acked, nWrites) // one slot per write: sends never block
	observed := make(chan struct{})
	go func() {
		defer close(observed)
		if !probe {
			for range visible {
			}
			return
		}
		obs := newClient(1)
		defer obs.close()
		for a := range visible {
			v, err := obs.awaitVisible(ctx, t.replica.url, ops[a.i].write, a.at)
			pd.writes[a.i].visible = v
			if err != nil {
				pd.writes[a.i].err = err
				r.fail(err)
			}
		}
	}()
	pd.samples = runOpen(ops, r.cfg.workers, func(i int, t0 time.Time) (time.Duration, bool) {
		o := &ops[i]
		if o.read != nil {
			out := r.cl.search(ctx, t.leader.url, o.read, false)
			end := time.Since(t0)
			pd.reads[i] = out
			r.count(out.err)
			return end, out.err != nil
		}
		ack, err := r.cl.apply(ctx, t.leader.url, o.write)
		now := time.Now()
		pd.writes[i] = writeOutcome{ack: ack, visible: -1, err: err}
		r.count(err)
		if err == nil {
			visible <- acked{i, now}
		}
		return now.Sub(t0), err != nil
	})
	close(visible)
	<-observed
	pd.pace = pacingOf(pd.samples, dur)
	return pd
}

// checkSampled compares every refEvery-th successful read of a phase
// that ran against the unmodified corpus with the reference.
func (r *runner) checkSampled(ctx context.Context, pd *phaseData) {
	const refEvery = 20
	for i, o := range pd.ops {
		if o.read == nil || i%refEvery != 0 || pd.reads[i].err != nil {
			continue
		}
		if err := r.ref.check(ctx, o.read, pd.reads[i].results); err != nil {
			r.fail(err)
		}
	}
}

func (pd *phaseData) readLatencies() series {
	var s series
	for i, o := range pd.ops {
		if o.read != nil {
			s = append(s, ms(pd.samples[i].latency()))
		}
	}
	return s
}

func (pd *phaseData) writeLatencies() (ack, visible series) {
	for i, o := range pd.ops {
		if o.write == nil {
			continue
		}
		ack = append(ack, ms(pd.samples[i].latency()))
		if v := pd.writes[i].visible; v >= 0 && pd.writes[i].err == nil {
			visible = append(visible, ms(v))
		}
	}
	return ack, visible
}

func (pd *phaseData) failures() int {
	n := 0
	for _, s := range pd.samples {
		if s.failed {
			n++
		}
	}
	return n
}

// readLimit is the latency limit read_max_rps is defined by, applied to
// the median read latency from due time. (A p99 limit this tight does
// not work on a small shared host: scheduler and collector stalls put
// the read p99 at 8-13 ms at every rate, so no rung would pass.)
const readLimit = 5 * time.Millisecond

// passes reports whether a ladder rung met the limit: median read
// latency (from due) within readLimit, no failed operation, and no
// backlog left standing at the rung's end.
func (pd *phaseData) passes(workers int) bool {
	p50 := pd.readLatencies().p(0.5)
	standing := len(pd.ops) / 100
	if standing < 2*workers {
		standing = 2 * workers
	}
	return !math.IsNaN(p50) && p50 <= ms(readLimit) && pd.failures() == 0 && pd.pace.endBacklog <= standing
}

// ladderSamples is the read count each rung aims for: plenty for a
// median.
const ladderSamples = 500

// maxRate searches the workload's rate ladder for the highest rate that
// passes. Each rung runs the workload's read mix (and its nominal writes)
// for long enough to support p99, and at least budget/8.
func (r *runner) maxRate(ctx context.Context, t *topology, budget time.Duration, onRung func(*phaseData)) float64 {
	w := r.cfg.w
	l := newLadder(w.ladderLo, w.ladderHi)
	start := time.Now()
	i := l.maxPassing(func(rate float64) bool {
		if time.Since(start) > 2*budget {
			return false // out of time: settle on the highest rung passed so far
		}
		dur := time.Duration(ladderSamples / rate * float64(time.Second))
		if dur < budget/8 {
			dur = budget / 8
		}
		// A host stall can only make a rung look worse, never better, so
		// a failing rung gets one more try before it counts as failed.
		for try := 0; try < 2; try++ {
			ops := r.g.phase(fmt.Sprintf("ladder/%.0f/%d", rate, try), dur, rate, w.nominalWrites)
			pd := r.drive(ctx, t, ops, dur, false)
			if onRung != nil {
				onRung(pd)
			}
			if pd.passes(r.cfg.workers) {
				return true
			}
		}
		return false
	})
	if i < 0 {
		return 0
	}
	return l[i]
}
