package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// topology is one launched leader plus its replica.
type topology struct {
	leader, replica *child
	dataDir         string
	// setup is launch-to-both-ready; bootstrap is replica launch to
	// replica ready (snapshot bootstrap plus the first tail).
	setup, bootstrap time.Duration
}

// launcher starts topologies for one workload in fresh directories under
// workDir.
type launcher struct {
	w       workload
	bin     string
	workDir string
	procs   *children
	hc      *http.Client
	n       int
}

const readyTimeout = 60 * time.Second

// launch starts the leader, waits until it is ready, then starts the
// replica and waits for it. A child that fails to start (for instance
// because another process took its port) is retried on fresh ports.
func (l *launcher) launch(ctx context.Context) (*topology, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		t, err := l.launchOnce(ctx)
		if err == nil {
			return t, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			break
		}
	}
	return nil, lastErr
}

func (l *launcher) launchOnce(ctx context.Context) (_ *topology, err error) {
	l.n++
	dir := filepath.Join(l.workDir, "launch-"+strconv.Itoa(l.n))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	lport, err := freePort()
	if err != nil {
		return nil, err
	}
	rport, err := freePort()
	if err != nil {
		return nil, err
	}
	t := &topology{dataDir: filepath.Join(dir, "leader-data")}
	defer func() {
		if err != nil {
			l.stop(t)
		}
	}()
	common := []string{"-dataset", datasetName, "-query", datasetQ, "-seed", strconv.Itoa(datasetSeed)}
	leaderArgs := append(append([]string{}, common...),
		"-data-dir", t.dataDir,
		"-shards", strconv.Itoa(l.w.shards),
		"-sync", "always",
		"-gc-interval", l.w.gcInterval.String())
	replicaURL := fmt.Sprintf("http://127.0.0.1:%d", rport)
	if l.w.routed {
		leaderArgs = append(leaderArgs, "-replicas", replicaURL)
	}
	start := time.Now()
	if t.leader, err = l.procs.start("leader", l.bin, lport, filepath.Join(dir, "leader.log"), leaderArgs); err != nil {
		return nil, err
	}
	if err := waitReady(ctx, l.hc, t.leader, readyTimeout); err != nil {
		return nil, err
	}
	repStart := time.Now()
	replicaArgs := append(append([]string{}, common...), "-replica-of", t.leader.url)
	if t.replica, err = l.procs.start("replica", l.bin, rport, filepath.Join(dir, "replica.log"), replicaArgs); err != nil {
		return nil, err
	}
	if err := waitReady(ctx, l.hc, t.replica, readyTimeout); err != nil {
		return nil, err
	}
	t.setup = time.Since(start)
	t.bootstrap = time.Since(repStart)
	return t, nil
}

// stop stops both children (replica first, so it does not log a severed
// stream) and removes the launch's files.
func (l *launcher) stop(t *topology) {
	if t == nil {
		return
	}
	for _, c := range []*child{t.replica, t.leader} {
		if c != nil {
			l.procs.stop(c)
		}
	}
	if t.dataDir != "" {
		_ = os.RemoveAll(filepath.Dir(t.dataDir)) // best effort: the whole work dir goes at exit too
	}
}

// peakRSS sums VmHWM over both children.
func (t *topology) peakRSS() (int64, error) {
	var total int64
	for _, c := range []*child{t.leader, t.replica} {
		n, err := peakRSS(c.cmd.Process.Pid)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", c.name, err)
		}
		total += n
	}
	return total, nil
}

// cpu sums the CPU time both children have used so far.
func (t *topology) cpu() (time.Duration, error) {
	var total time.Duration
	for _, c := range []*child{t.leader, t.replica} {
		d, err := cpuTime(c.cmd.Process.Pid)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", c.name, err)
		}
		total += d
	}
	return total, nil
}
