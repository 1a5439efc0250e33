package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// child is one dashserve process the load generator launched and owns.
type child struct {
	name    string
	cmd     *exec.Cmd
	port    int
	url     string
	logPath string
	exited  chan struct{}
	waitErr error
}

// children tracks every live child so that exit paths and signals can
// stop them all.
type children struct {
	mu   sync.Mutex
	live map[*child]bool
}

func newChildren() *children { return &children{live: map[*child]bool{}} }

// freePort asks the kernel for an unused loopback port. Another process
// could take it before the child binds; the child then fails to start and
// the ownership check in waitReady catches anything that answers anyway.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("reserve port: %w", err)
	}
	port := l.Addr().(*net.TCPAddr).Port
	if err := l.Close(); err != nil {
		return 0, fmt.Errorf("release port: %w", err)
	}
	return port, nil
}

// start launches bin on 127.0.0.1:port with args, logging to logPath.
func (cs *children) start(name, bin string, port int, logPath string, args []string) (*child, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	// Own process group, so a terminal's Ctrl-C reaches only perfdash
	// (which stops the children itself); Pdeathsig kills a child whose
	// parent died without cleaning up.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	c := &child{name: name, cmd: cmd, port: port, url: "http://" + addr, logPath: logPath, exited: make(chan struct{})}
	cs.mu.Lock()
	cs.live[c] = true
	cs.mu.Unlock()
	go func() {
		c.waitErr = cmd.Wait()
		logf.Close()
		close(c.exited)
	}()
	return c, nil
}

// stop terminates c gracefully, escalating to SIGKILL, and waits for it.
func (cs *children) stop(c *child) {
	select {
	case <-c.exited:
	default:
		_ = c.cmd.Process.Signal(syscall.SIGTERM) // an exited process is fine
		select {
		case <-c.exited:
		case <-time.After(5 * time.Second):
			_ = c.cmd.Process.Kill() // a kill of an exited process is fine
			<-c.exited
		}
	}
	cs.mu.Lock()
	delete(cs.live, c)
	cs.mu.Unlock()
}

// stopAll stops every child still running.
func (cs *children) stopAll() {
	cs.mu.Lock()
	var all []*child
	for c := range cs.live {
		all = append(all, c)
	}
	cs.mu.Unlock()
	var wg sync.WaitGroup
	for _, c := range all {
		wg.Add(1)
		go func(c *child) {
			defer wg.Done()
			cs.stop(c)
		}(c)
	}
	wg.Wait()
}

// logTail returns the end of a child's log for error messages.
func (c *child) logTail() string {
	b, err := os.ReadFile(c.logPath)
	if err != nil {
		return ""
	}
	if len(b) > 800 {
		b = b[len(b)-800:]
	}
	return strings.TrimSpace(string(b))
}

// waitReady polls c's /v1/readyz until it answers 200 with status
// "ready", then checks that the listening socket on c's port belongs to
// c's own process — not to a leftover server from an earlier run.
func waitReady(ctx context.Context, hc *http.Client, c *child, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		select {
		case <-c.exited:
			return fmt.Errorf("%s exited before ready (%v): %s", c.name, c.waitErr, c.logTail())
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		if readyOnce(ctx, hc, c.url) {
			owner, err := listenerOwner(c.port)
			if err != nil {
				return fmt.Errorf("%s: %w", c.name, err)
			}
			if owner != c.cmd.Process.Pid {
				return fmt.Errorf("%s: port %d answers readyz but is held by pid %d, not the launched child %d",
					c.name, c.port, owner, c.cmd.Process.Pid)
			}
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: not ready after %v: %s", c.name, timeout, c.logTail())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func readyOnce(ctx context.Context, hc *http.Client, base string) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/readyz", nil)
	if err != nil {
		return false
	}
	resp, err := hc.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	var body struct {
		Status string `json:"status"`
	}
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&body) != nil {
		return false
	}
	return body.Status == "ready"
}

// listenerOwner returns the pid whose file table holds the socket
// listening on 127.0.0.1:port, from /proc.
func listenerOwner(port int) (int, error) {
	inode, err := listenInode(port)
	if err != nil {
		return 0, err
	}
	target := fmt.Sprintf("socket:[%d]", inode)
	procs, err := os.ReadDir("/proc")
	if err != nil {
		return 0, fmt.Errorf("list /proc: %w", err)
	}
	for _, p := range procs {
		pid, err := strconv.Atoi(p.Name())
		if err != nil {
			continue
		}
		fds, err := os.ReadDir(filepath.Join("/proc", p.Name(), "fd"))
		if err != nil {
			continue // not ours to read, or gone
		}
		for _, fd := range fds {
			if l, err := os.Readlink(filepath.Join("/proc", p.Name(), "fd", fd.Name())); err == nil && l == target {
				return pid, nil
			}
		}
	}
	return 0, fmt.Errorf("no visible process holds the listener on port %d", port)
}

// listenInode finds the inode of the LISTEN socket on port.
func listenInode(port int) (uint64, error) {
	for _, table := range []string{"/proc/net/tcp", "/proc/net/tcp6"} {
		f, err := os.Open(table)
		if err != nil {
			continue
		}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) < 10 || fields[3] != "0A" { // 0A: TCP_LISTEN
				continue
			}
			i := strings.LastIndexByte(fields[1], ':')
			p, err := strconv.ParseUint(fields[1][i+1:], 16, 32)
			if err != nil || int(p) != port {
				continue
			}
			inode, err := strconv.ParseUint(fields[9], 10, 64)
			if err == nil {
				f.Close()
				return inode, nil
			}
		}
		f.Close()
	}
	return 0, fmt.Errorf("no listener on port %d in /proc/net/tcp", port)
}

// peakRSS returns a process's VmHWM (peak resident set) in bytes.
func peakRSS(pid int) (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb << 10, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// cpuTime returns a process's user plus system CPU time from
// /proc/<pid>/stat. The kernel does not charge time the hypervisor stole
// to the process, so unlike wall-clock latency this does not swell when
// the host is busy.
func cpuTime(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name: state is field 3,
	// utime and stime are fields 14 and 15.
	rest := string(b[strings.LastIndexByte(string(b), ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	var ticks int64
	for _, x := range f[11:13] {
		n, err := strconv.ParseInt(x, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parse /proc/%d/stat: %w", pid, err)
		}
		ticks += n
	}
	const clkTck = 100 // USER_HZ, fixed at 100 on Linux
	return time.Duration(ticks) * time.Second / clkTck, nil
}

// dirSize sums the sizes of the regular files under dir.
func dirSize(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				return nil // a checkpoint pruned it mid-walk
			}
			return err
		}
		if d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return total, err
}

// getJSON fetches url and decodes its JSON body into v.
func getJSON(ctx context.Context, hc *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512)) // for the message only
		return fmt.Errorf("GET %s: %s: %s", url, resp.Status, b)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
