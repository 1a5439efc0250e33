package main

import (
	"context"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/harness"
)

// fooddbCorpus builds the running-example corpus through the same path
// the benchmark uses for TPC-H, so generator tests stay fast.
func fooddbCorpus(t *testing.T) *corpus {
	t.Helper()
	db, app, err := harness.Fooddb()
	if err != nil {
		t.Fatal(err)
	}
	c, err := buildCorpus(context.Background(), db, app)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// schedule draws every phase a run draws, in run order.
func schedule(c *corpus, w workload, seed int64) []op {
	g := newGenerator(w, c, seed)
	var ops []op
	ops = append(ops, g.phase("warm", time.Second, w.readRate, 0)...)
	ops = append(ops, g.phase("nominal", 2*time.Second, w.readRate, 40)...)
	ops = append(ops, g.phase("writes", time.Second, 0, 50)...)
	return ops
}

type flatOp struct {
	Due   time.Duration
	Query string
	Seq   int
	Body  string
}

func flatten(ops []op) []flatOp {
	out := make([]flatOp, len(ops))
	for i, o := range ops {
		out[i].Due = o.due
		if o.read != nil {
			out[i].Query = o.read.query
		} else {
			out[i].Seq, out[i].Body = o.write.seq, string(o.write.body)
		}
	}
	return out
}

func TestGeneratorDeterministic(t *testing.T) {
	c := fooddbCorpus(t)
	for _, w := range workloads {
		a := flatten(schedule(c, w, 7))
		b := flatten(schedule(c, w, 7))
		if len(a) == 0 {
			t.Fatalf("%s: empty schedule", w.name)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed drew different schedules", w.name)
		}
		if reflect.DeepEqual(a, flatten(schedule(c, w, 8))) {
			t.Errorf("%s: seeds 7 and 8 drew the same schedule", w.name)
		}
	}
}

func TestWritesCarryTheirMarkers(t *testing.T) {
	c := fooddbCorpus(t)
	g := newGenerator(workloads[2], c, 3)
	ops := g.phase("nominal", 3*time.Second, 10, 50)
	prior := map[int][]string{}
	for _, o := range ops {
		if o.write == nil {
			continue
		}
		w := o.write
		ch := w.delta.Changes[0]
		if ch.TermCounts[w.marker] != 1 {
			t.Fatalf("write #%d lacks its own marker", w.seq)
		}
		// Earlier markers of the same fragment stay, so a later write
		// never hides an earlier one from the visibility probe.
		for _, m := range prior[w.frag] {
			if ch.TermCounts[m] != 1 {
				t.Fatalf("write #%d dropped marker %s of an earlier write to the fragment", w.seq, m)
			}
		}
		prior[w.frag] = append(prior[w.frag], w.marker)
		var total int64
		for _, n := range ch.TermCounts {
			total += n
		}
		if total != ch.TotalTerms {
			t.Fatalf("write #%d: total %d, terms sum to %d", w.seq, ch.TotalTerms, total)
		}
	}
	if len(g.writes) == 0 {
		t.Fatal("no writes drawn")
	}
}

func TestPercentileHasTenSamplesBeyond(t *testing.T) {
	for _, p := range []float64{0.9, 0.99, 0.999} {
		for n := 1; n <= 20000; n++ {
			v, ok := quantile(make([]float64, n), p)
			if ok != supports(n, p) {
				t.Fatalf("p%v n=%d: quantile ok=%v, supports=%v", p, n, ok, supports(n, p))
			}
			if ok && beyond(n, p) < minBeyond {
				t.Fatalf("p%v n=%d: only %d samples beyond", p, n, beyond(n, p))
			}
			if !ok && !math.IsNaN(series(make([]float64, n)).p(p)) {
				t.Fatalf("p%v n=%d: unsupported percentile reported as %v", p, n, v)
			}
		}
	}
	if got := minSamples(0.99); got != 1000 {
		t.Errorf("minSamples(0.99) = %d, want 1000", got)
	}
}

// A server that stalls must be charged for every request scheduled
// behind the stall, measured from when each was due — not from when the
// load generator finally got to send it (coordinated omission).
func TestLatencyCountsFromDueTime(t *testing.T) {
	const stall = 150 * time.Millisecond
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	hc := srv.Client()

	ops := make([]op, 100)
	for i := range ops {
		ops[i] = op{due: time.Duration(i) * time.Millisecond, read: &readReq{}}
	}
	samples := runOpen(ops, 2, func(i int, t0 time.Time) (time.Duration, bool) {
		resp, err := hc.Get(srv.URL)
		if err != nil {
			return time.Since(t0), true
		}
		resp.Body.Close()
		return time.Since(t0), false
	})
	// One worker is stuck in the stall; the other keeps serving, so only
	// the first request must carry the whole stall. Then stall both.
	if got := samples[0].latency(); got < stall {
		t.Fatalf("stalled request latency %v < stall %v", got, stall)
	}

	calls.Store(0)
	stallAll := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n := calls.Add(1); n <= 2 {
			time.Sleep(stall)
		}
	}))
	defer stallAll.Close()
	hc = stallAll.Client()
	samples = runOpen(ops, 2, func(i int, t0 time.Time) (time.Duration, bool) {
		resp, err := hc.Get(stallAll.URL)
		if err != nil {
			return time.Since(t0), true
		}
		resp.Body.Close()
		return time.Since(t0), false
	})
	// With both workers stalled, request k (due at k ms, k >= 2) cannot
	// start before the stall ends, so its latency from due is at least
	// the stall minus its own offset.
	for k := 2; k < 100; k++ {
		want := stall - ops[k].due
		if want <= 0 {
			break
		}
		if got := samples[k].latency(); got < want {
			t.Fatalf("request %d due at %v: latency %v, want >= %v (measured from send, not due)", k, ops[k].due, got, want)
		}
	}
	p := pacingOf(samples, 100*time.Millisecond)
	if p.maxBacklog < 50 {
		t.Errorf("backlog max %d during a %v stall of both workers, want >= 50", p.maxBacklog, stall)
	}
}

func TestLadderMaxPassing(t *testing.T) {
	l := newLadder(100, 10000)
	for i := 1; i < len(l); i++ {
		if step := l[i] / l[i-1]; step > 1.1 {
			t.Fatalf("rungs %d and %d are %.2fx apart, want <= 1.1", i-1, i, step)
		}
	}
	for want := -1; want < len(l); want++ {
		probes := 0
		got := l.maxPassing(func(rate float64) bool {
			probes++
			return want >= 0 && rate <= l[want]
		})
		if got != want {
			t.Fatalf("capacity at rung %d: search returned %d", want, got)
		}
		if limit := int(math.Ceil(math.Log2(float64(len(l)+1)))) + 1; probes > limit {
			t.Fatalf("capacity at rung %d: %d probes, want <= %d", want, probes, limit)
		}
	}
}

func TestCheckSearch(t *testing.T) {
	r := &readReq{kws: []string{"burger"}, k: 2, query: "q=burger&k=2&s=20"}
	good := `{"count":2,"query":"burger","results":[` +
		`{"url":"http://h/app?c=American&l=10&u=12","query_string":"c=American&l=10&u=12","score":0.04,"size":25},` +
		`{"url":"http://h/app?c=Thai&l=10&u=10","query_string":"c=Thai&l=10&u=10","score":0.033333,"size":30}]}`
	if _, err := checkSearch([]byte(good), r); err != nil {
		t.Fatalf("valid answer rejected: %v", err)
	}
	for name, body := range map[string]string{
		"count mismatch": `{"count":1,"query":"burger","results":[]}`,
		"over k":         `{"count":3,"query":"burger","results":[{"url":"http://h/a?x=1","query_string":"x=1","score":1},{"url":"http://h/a?x=2","query_string":"x=2","score":1},{"url":"http://h/a?x=3","query_string":"x=3","score":1}]}`,
		"relative url":   `{"count":1,"query":"burger","results":[{"url":"/app?x=1","query_string":"x=1","score":1}]}`,
		"query mismatch": `{"count":1,"query":"burger","results":[{"url":"http://h/a?x=1","query_string":"x=2","score":1}]}`,
		"unordered":      `{"count":2,"query":"burger","results":[{"url":"http://h/a?x=1","query_string":"x=1","score":1},{"url":"http://h/a?x=2","query_string":"x=2","score":2}]}`,
		"wrong query":    `{"count":0,"query":"pizza","results":[]}`,
		"no count":       `{"query":"burger","results":[]}`,
		"extra field":    `{"count":0,"query":"burger","results":[],"elapsed":"1ms"}`,
	} {
		if _, err := checkSearch([]byte(body), r); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestListenerOwner(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	owner, err := listenerOwner(l.Addr().(*net.TCPAddr).Port)
	if err != nil {
		t.Fatal(err)
	}
	if owner != os.Getpid() {
		t.Fatalf("listener owned by pid %d, want this process %d", owner, os.Getpid())
	}
}
