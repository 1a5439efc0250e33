package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strings"
	"time"
)

// page is one search result as the /v1 API returns it.
type page struct {
	URL   string  `json:"url"`
	Query string  `json:"query_string"`
	Score float64 `json:"score"`
	Size  int64   `json:"size"`
}

type searchBody struct {
	Query   string `json:"query"`
	Count   *int   `json:"count"`
	Results []page `json:"results"`
}

// readOutcome is what one HTTP search returned.
type readOutcome struct {
	rtt       time.Duration
	elapsed   time.Duration // the serving process's X-Elapsed; -1 when absent
	cache     string
	forwarded bool
	results   []page
	err       error
}

// writeOutcome is what one apply returned, plus replica visibility.
type writeOutcome struct {
	ack     time.Duration // send to acknowledgement
	visible time.Duration // acknowledgement to marker visible on the replica; -1 when not probed
	err     error
}

// client issues the benchmark's HTTP operations.
type client struct {
	hc *http.Client
}

func newClient(conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 15 * time.Second}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// search sends one /v1/search and validates the answer's shape. local
// asks a routing leader to answer itself (the forwarding loop guard), so
// verification reads always see the server they were sent to.
func (c *client) search(ctx context.Context, base string, r *readReq, local bool) readOutcome {
	out := readOutcome{elapsed: -1}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/search?"+r.query, nil)
	if err != nil {
		out.err = err
		return out
	}
	if local {
		req.Header.Set("X-Dash-Forwarded", "1")
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		out.err = err
		return out
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	out.rtt = time.Since(start)
	if err != nil {
		out.err = err
		return out
	}
	if resp.StatusCode != http.StatusOK {
		out.err = fmt.Errorf("search %q: %s: %s", r.query, resp.Status, truncate(body))
		return out
	}
	out.cache = resp.Header.Get("X-Cache")
	out.forwarded = resp.Header.Get("X-Dash-Served-By") != ""
	// A forwarded response carries the serving replica's X-Elapsed.
	if d, err := time.ParseDuration(resp.Header.Get("X-Elapsed")); err == nil {
		out.elapsed = d
	}
	out.results, out.err = checkSearch(body, r)
	return out
}

// checkSearch validates a search body: JSON shape, echoed query, count
// equal to the results listed and at most k, parseable absolute URLs
// whose query string is the one reported, finite non-negative scores in
// non-increasing order.
func checkSearch(body []byte, r *readReq) ([]page, error) {
	var sb searchBody
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sb); err != nil {
		return nil, fmt.Errorf("search %q: bad JSON: %v", r.query, err)
	}
	switch {
	case sb.Count == nil:
		return nil, fmt.Errorf("search %q: no count", r.query)
	case *sb.Count != len(sb.Results):
		return nil, fmt.Errorf("search %q: count %d but %d results", r.query, *sb.Count, len(sb.Results))
	case *sb.Count > r.k:
		return nil, fmt.Errorf("search %q: %d results for k=%d", r.query, *sb.Count, r.k)
	case sb.Query != strings.Join(r.kws, " "):
		return nil, fmt.Errorf("search %q: echoed query %q", r.query, sb.Query)
	}
	for i, p := range sb.Results {
		u, err := url.Parse(p.URL)
		if err != nil || u.Scheme == "" || u.Host == "" || u.RawQuery != p.Query || p.Query == "" {
			return nil, fmt.Errorf("search %q: result %d: bad URL %q (query_string %q)", r.query, i, p.URL, p.Query)
		}
		if _, err := url.ParseQuery(p.Query); err != nil {
			return nil, fmt.Errorf("search %q: result %d: bad query string %q", r.query, i, p.Query)
		}
		if math.IsNaN(p.Score) || math.IsInf(p.Score, 0) || p.Score < 0 {
			return nil, fmt.Errorf("search %q: result %d: score %v", r.query, i, p.Score)
		}
		if i > 0 && p.Score > sb.Results[i-1].Score {
			return nil, fmt.Errorf("search %q: results not ordered by score", r.query)
		}
	}
	return sb.Results, nil
}

// apply posts one write to the leader and validates the acknowledgement.
func (c *client) apply(ctx context.Context, base string, w *writeReq) (time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/admin/apply", bytes.NewReader(w.body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	ack := time.Since(start)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("apply #%d: %s: %s", w.seq, resp.Status, truncate(body))
	}
	var rep struct {
		Total struct {
			Updated int    `json:"updated"`
			Epoch   uint64 `json:"epoch"`
		} `json:"total"`
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		return 0, fmt.Errorf("apply #%d: bad JSON: %v", w.seq, err)
	}
	if rep.Total.Updated != 1 || rep.Total.Epoch == 0 {
		return 0, fmt.Errorf("apply #%d: acknowledged %s, want one update at a new epoch", w.seq, truncate(body))
	}
	return ack, nil
}

// visibleTimeout bounds how long a write may take to reach the replica
// before it counts as failed.
const visibleTimeout = 5 * time.Second

// awaitVisible searches the replica directly for w's marker until the
// written fragment comes back, returning the time since the leader
// acknowledged the write at acked.
func (c *client) awaitVisible(ctx context.Context, replica string, w *writeReq, acked time.Time) (time.Duration, error) {
	probe := &readReq{kws: []string{w.marker}, k: 1, s: 1 << 20}
	probe.query = url.Values{"q": {w.marker}, "k": {"1"}, "s": {"1048576"}}.Encode()
	for {
		out := c.search(ctx, replica, probe, false)
		if out.err != nil {
			return 0, fmt.Errorf("visibility probe for write #%d: %w", w.seq, out.err)
		}
		if len(out.results) == 1 {
			return time.Since(acked), nil
		}
		if time.Since(acked) > visibleTimeout {
			return 0, fmt.Errorf("write #%d (marker %s) not visible on the replica after %v", w.seq, w.marker, visibleTimeout)
		}
		sleep(200 * time.Microsecond)
	}
}

func truncate(b []byte) string {
	if len(b) > 300 {
		b = b[:300]
	}
	return strings.TrimSpace(string(b))
}
