package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// sample is one scheduled operation's timing. All times are offsets from
// the phase start.
type sample struct {
	due, start, end time.Duration
	// slept marks an operation its worker had to wait for: the worker was
	// idle, so start−due is the load generator's own timer lateness, not backlog.
	slept  bool
	failed bool
}

// latency is the operation's time from when it was due, so a stall
// delays, and is charged to, every operation scheduled behind it.
func (s *sample) latency() time.Duration { return s.end - s.due }

// doFunc performs ops[i] and reports its end time (offset from t0) and
// whether it failed. Workers call it concurrently.
type doFunc func(i int, t0 time.Time) (end time.Duration, failed bool)

// runOpen drives ops (ascending due times) open-loop. Reads go to a pool
// of workers: each takes the next read in due order, sleeps until it is
// due if it is early, and performs it; a read due while every worker is
// busy waits inside the load generator, and that wait is part of its latency.
// Writes go to one writer that sends them strictly in sequence, so the
// leader applies them in generation order and a slow write delays later
// writes, never reads.
func runOpen(ops []op, workers int, do doFunc) []sample {
	samples := make([]sample, len(ops))
	var reads, writes []int
	for i, o := range ops {
		if o.write != nil {
			writes = append(writes, i)
		} else {
			reads = append(reads, i)
		}
	}
	var wg sync.WaitGroup
	t0 := time.Now()
	lane := func(idx []int, n int) {
		var next atomic.Int64
		for w := 0; w < n; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					k := int(next.Add(1)) - 1
					if k >= len(idx) {
						return
					}
					i := idx[k]
					s := &samples[i]
					s.due = ops[i].due
					if wait := s.due - time.Since(t0); wait > 0 {
						sleep(wait)
						s.slept = true
					}
					s.start = time.Since(t0)
					s.end, s.failed = do(i, t0)
				}
			}()
		}
	}
	lane(reads, workers)
	lane(writes, 1)
	wg.Wait()
	return samples
}

// sleep blocks for d. The Go runtime's timers wake on its poller's
// millisecond ticks, so time.Sleep(200µs) returns about a millisecond
// late — as long as a whole cached search takes. nanosleep(2) wakes
// within the kernel's timer slack (50µs by default) instead; the runtime
// hands the sleeping worker's P to other goroutines meanwhile.
func sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// pacing summarizes how well the load generator kept its schedule.
type pacing struct {
	// lateness is the p99 of start−due over all operations: backlog plus
	// timer lateness. timerLate is the p99 over operations whose worker
	// was idle and slept — the generator's own lateness.
	lateness, timerLate time.Duration
	// maxBacklog is the most operations due but not started at any due
	// time; endBacklog is the count still waiting at the phase end.
	maxBacklog, endBacklog int
}

func pacingOf(samples []sample, phaseEnd time.Duration) pacing {
	var p pacing
	late := make(series, 0, len(samples))
	var timer series
	starts := make([]time.Duration, len(samples))
	for i, s := range samples {
		late = append(late, float64(s.start-s.due))
		if s.slept {
			timer = append(timer, float64(s.start-s.due))
		}
		starts[i] = s.start
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	started := func(t time.Duration) int {
		return sort.Search(len(starts), func(i int) bool { return starts[i] > t })
	}
	for i, s := range samples {
		if b := i + 1 - started(s.due); b > p.maxBacklog {
			p.maxBacklog = b
		}
	}
	p.endBacklog = len(samples) - started(phaseEnd)
	p.lateness, p.timerLate = p99OrMax(late), p99OrMax(timer)
	return p
}

// p99OrMax is the p99, or the maximum of a sample too small for one.
func p99OrMax(s series) time.Duration {
	srt := s.sorted()
	if len(srt) == 0 {
		return 0
	}
	if v, ok := quantile(srt, 0.99); ok {
		return time.Duration(v)
	}
	return time.Duration(srt[len(srt)-1])
}

// ladder is a fixed geometric rate ladder for the read_max_rps search.
// Adjacent rungs are ladderStep apart, well inside the 10% that would
// let a one-rung flip read as a regression.
type ladder []float64

const ladderStep = 1.05

func newLadder(lo, hi float64) ladder {
	var l ladder
	for r := lo; r <= hi; r *= ladderStep {
		l = append(l, r)
	}
	return l
}

// maxPassing returns the index of the highest rung at which pass holds,
// or -1 when even the lowest fails, assuming pass is monotone (true up to
// the capacity knee, false beyond). It binary-searches, so it probes
// O(log n) rungs.
func (l ladder) maxPassing(pass func(rate float64) bool) int {
	lo, hi := -1, len(l) // invariant: rung lo passes (or lo = -1), rung hi fails (or hi = len)
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if pass(l[mid]) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
