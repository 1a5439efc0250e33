package main

// The layer-presence matrix: every serving mode dashserve can run in,
// against every HTTP-visible signal that depends on which optional layers
// (durable store, result cache, admission control, read router, replica
// tail) the handle carries. The handlers decide these from the handle's
// method set alone, so this table is the contract that any refactor of the
// handle's internals must keep.

import (
	"bytes"
	"context"
	"encoding/json"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	dash "repro"
	"repro/internal/harness"
)

// syncBuffer is a goroutine-safe log sink: httptest servers and the
// handlers log concurrently.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// captureLog redirects the standard logger (the access log's sink) for
// the rest of the test.
func captureLog(t *testing.T) *syncBuffer {
	t.Helper()
	buf := &syncBuffer{}
	log.SetOutput(buf)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
	return buf
}

// openMux opens a fooddb handle with opts and wraps it in the full HTTP
// surface.
func openMux(t *testing.T, opts ...dash.Option) http.Handler {
	t.Helper()
	db, app, err := harness.Fooddb()
	if err != nil {
		t.Fatal(err)
	}
	idx, _, err := dash.Build(context.Background(), db, app, dash.BuildOptions{Algorithm: dash.AlgReference})
	if err != nil {
		t.Fatal(err)
	}
	bound, err := app.Bound()
	if err != nil {
		t.Fatal(err)
	}
	h, err := dash.Open(context.Background(), idx, app, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if c, ok := h.(interface{ Close() error }); ok {
			c.Close()
		}
	})
	mux, _ := newMux(h, app, db, bound.SelAttrKinds(), serveConfig{searchTimeout: 5 * time.Second})
	return mux
}

// accessLogField returns the value of field (e.g. "durability") on the
// access-log line for the request URI carrying marker.
func accessLogField(t *testing.T, logs, marker, field string) string {
	t.Helper()
	re := regexp.MustCompile(regexp.QuoteMeta(marker) + `.* ` + field + `=(\S+)`)
	m := re.FindStringSubmatch(logs)
	if m == nil {
		t.Fatalf("no access-log line for %q with %s= in:\n%s", marker, field, logs)
	}
	return m[1]
}

func TestLayerPresenceMatrix(t *testing.T) {
	// The routed leader polls a replica that is never up: routing falls
	// back to local serving, and only the router's presence is observable.
	gone := httptest.NewServer(http.NotFoundHandler())
	goneURL := gone.URL
	gone.Close()

	rows := []struct {
		name string
		mux  func(t *testing.T) http.Handler
		// Layers present on the row's handle.
		durable, cached, admission, routed, replica bool
	}{
		{name: "memory-s1", mux: func(t *testing.T) http.Handler {
			return openMux(t, dash.WithShards(1))
		}},
		{name: "memory-s3", mux: func(t *testing.T) http.Handler {
			return openMux(t, dash.WithShards(3))
		}},
		{name: "durable", durable: true, mux: func(t *testing.T) http.Handler {
			return openMux(t, dash.WithShards(1), dash.WithDataDir(t.TempDir()))
		}},
		{name: "durable+cache+admission", durable: true, cached: true, admission: true, mux: func(t *testing.T) http.Handler {
			return openMux(t, dash.WithShards(3), dash.WithDataDir(t.TempDir()),
				dash.WithResultCache(1<<20),
				dash.WithAdmissionControl(dash.AdmissionOptions{MaxInFlight: 64}))
		}},
		{name: "routed-leader", durable: true, routed: true, mux: func(t *testing.T) http.Handler {
			return openMux(t, dash.WithShards(2), dash.WithDataDir(t.TempDir()),
				dash.WithReplicas(goneURL))
		}},
		{name: "replica", replica: true, mux: func(t *testing.T) http.Handler {
			_, replicaMux, _ := leaderAndReplicaMux(t, 2)
			return replicaMux
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			logs := captureLog(t)
			mux := row.mux(t)

			// /v1/replication/* is mounted on durable leaders only.
			wantRepl := http.StatusNotFound
			if row.durable {
				wantRepl = http.StatusOK
			}
			if rec := get(t, mux, dash.ReplicationPrefix+"/manifest"); rec.Code != wantRepl {
				t.Errorf("replication manifest: status %d, want %d", rec.Code, wantRepl)
			}

			// /v1/readyz: {"status":"ready"}, plus the replication block on
			// replicas only.
			rec := get(t, mux, "/v1/readyz")
			var ready map[string]json.RawMessage
			if err := json.Unmarshal(rec.Body.Bytes(), &ready); err != nil || rec.Code != http.StatusOK {
				t.Fatalf("readyz: status %d, body %q (%v)", rec.Code, rec.Body.String(), err)
			}
			keys := make([]string, 0, len(ready))
			for k := range ready {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			wantKeys := "status"
			if row.replica {
				wantKeys = "replication,status"
			}
			if got := strings.Join(keys, ","); got != wantKeys {
				t.Errorf("readyz keys = %s, want %s (body %q)", got, wantKeys, rec.Body.String())
			}
			if string(ready["status"]) != `"ready"` {
				t.Errorf("readyz status = %s, want \"ready\"", ready["status"])
			}

			// X-Cache: miss then hit behind a result cache, bypass otherwise;
			// the access log's durability field names the durable state,
			// "-" when the handle is not durable.
			wantCache := []string{"bypass", "bypass"}
			if row.cached {
				wantCache = []string{"miss", "hit"}
			}
			for i, want := range wantCache {
				marker := "matrix=" + row.name + "-" + string(rune('a'+i))
				rec := get(t, mux, "/v1/search?q=burger&k=2&s=20&"+marker)
				if rec.Code != http.StatusOK {
					t.Fatalf("search: status %d, body %q", rec.Code, rec.Body.String())
				}
				if got := rec.Header().Get("X-Cache"); got != want {
					t.Errorf("search #%d X-Cache = %q, want %q", i, got, want)
				}
				if got := accessLogField(t, logs.String(), marker, "cache"); got != want {
					t.Errorf("search #%d access-log cache = %q, want %q", i, got, want)
				}
				wantDur := "-"
				if row.durable {
					wantDur = string(dash.DurabilityHealthy)
				}
				if got := accessLogField(t, logs.String(), marker, "durability"); got != wantDur {
					t.Errorf("search #%d access-log durability = %q, want %q", i, got, wantDur)
				}
			}

			// /v1/admin/stats carries exactly the present layers' blocks.
			var st map[string]json.RawMessage
			if err := json.Unmarshal(get(t, mux, "/v1/admin/stats").Body.Bytes(), &st); err != nil {
				t.Fatal(err)
			}
			for block, want := range map[string]bool{
				"cache":       row.cached,
				"admission":   row.admission,
				"durability":  row.durable,
				"replicas":    row.routed,
				"replication": row.replica,
			} {
				if _, got := st[block]; got != want {
					t.Errorf("admin stats %q block present = %v, want %v", block, got, want)
				}
			}

			// Writes: applied on leaders, 421 not_leader on replicas.
			rec = postJSON(t, mux, "/v1/admin/apply",
				`{"changes":[{"op":"update","id":["American","10"],"terms":{"burger":4},"total":4}]}`)
			if row.replica {
				if rec.Code != http.StatusMisdirectedRequest || errorCode(t, rec) != "not_leader" {
					t.Errorf("replica apply: status %d, body %q, want 421 not_leader", rec.Code, rec.Body.String())
				}
			} else if rec.Code != http.StatusOK {
				t.Errorf("apply: status %d, body %q", rec.Code, rec.Body.String())
			}

			// Deferred maintenance: queue and flush serve on leaders; a
			// replica has no queue and answers 422.
			for _, body := range []string{
				`{"mode":"queue","changes":[{"op":"insert","id":["Nordic","3"],"terms":{"herring":2},"total":2}]}`,
				`{"mode":"flush"}`,
			} {
				rec := postJSON(t, mux, "/v1/admin/apply", body)
				if row.replica {
					if rec.Code != http.StatusUnprocessableEntity || errorCode(t, rec) != "validation_failed" {
						t.Errorf("replica %s: status %d, body %q, want 422 validation_failed", body, rec.Code, rec.Body.String())
					}
				} else if rec.Code != http.StatusOK {
					t.Errorf("%s: status %d, body %q", body, rec.Code, rec.Body.String())
				}
			}
		})
	}
}
