package durable

// Durability state machine. The store is normally *healthy*: appends and
// checkpoints that hit transient disk faults retry in place with capped
// exponential backoff + jitter. Once RetryPolicy.FailureThreshold
// consecutive operations fail even after their retries, the store trips
// to *degraded*: reads are unaffected (snapshots already serve from
// memory), but every durable mutation fails fast with ErrDegraded — no
// new bytes are risked on a disk that just proved unreliable. A
// background prober then re-tests the data directory on a backed-off
// schedule; when a probe succeeds, recovery seals any poisoned journal
// (truncating back to the acknowledged extent), writes a fresh forced
// checkpoint from the live index via the installed BaselineFunc, rotates
// every journal past the poisoned segment, and the store returns to
// healthy — all without a restart and without a read ever blocking.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/fragindex"
)

// Typed lifecycle errors the dash facade re-exports.
var (
	// ErrClosed marks durable operations attempted after Close — the
	// typed replacement for raw "file already closed" fd errors.
	ErrClosed = errors.New("durable: store closed")
	// ErrDegraded marks durable mutations refused in degraded mode.
	// Searches keep serving published snapshots; writes fail fast until
	// the prober restores the data directory to service.
	ErrDegraded = errors.New("durable: durability degraded")
)

// State names the durability state machine's two states.
type State string

const (
	// StateHealthy: appends and checkpoints reach stable storage
	// (retrying transient faults in place).
	StateHealthy State = "healthy"
	// StateDegraded: the data dir failed repeatedly; mutations fail fast
	// with ErrDegraded while the prober works on automatic recovery.
	StateDegraded State = "degraded"
)

// RetryPolicy tunes durability retry/backoff and degraded-mode probing.
// The zero value means defaults everywhere.
type RetryPolicy struct {
	// MaxRetries is how many times a failed append/checkpoint is retried
	// before the failure counts toward degradation (default 2; negative
	// disables retries).
	MaxRetries int
	// Backoff is the delay before the first retry (default 5ms); each
	// subsequent retry doubles it, capped at MaxBackoff (default 100ms),
	// with up to 50% jitter added.
	Backoff    time.Duration
	MaxBackoff time.Duration
	// FailureThreshold is how many consecutive operations must fail
	// (after their retries) before the store degrades (default 2).
	FailureThreshold int
	// ProbeInterval is the delay before the first degraded-mode probe
	// (default 500ms); failed probes back off exponentially up to
	// MaxProbeInterval (default 5s).
	ProbeInterval    time.Duration
	MaxProbeInterval time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxRetries == 0 {
		p.MaxRetries = 2
	} else if p.MaxRetries < 0 {
		p.MaxRetries = 0
	}
	if p.Backoff <= 0 {
		p.Backoff = 5 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 100 * time.Millisecond
	}
	if p.MaxBackoff < p.Backoff {
		p.MaxBackoff = p.Backoff
	}
	if p.FailureThreshold <= 0 {
		p.FailureThreshold = 2
	}
	if p.ProbeInterval <= 0 {
		p.ProbeInterval = 500 * time.Millisecond
	}
	if p.MaxProbeInterval <= 0 {
		p.MaxProbeInterval = 5 * time.Second
	}
	if p.MaxProbeInterval < p.ProbeInterval {
		p.MaxProbeInterval = p.ProbeInterval
	}
	return p
}

// BaselineFunc supplies a shard's current state for the fresh checkpoint
// degraded-mode recovery writes. The dash facade installs one that dumps
// the live index; the builder rolls every failed publish back, so the
// dump is exactly the last acknowledged state.
type BaselineFunc func(ctx context.Context, shard int) (*fragindex.Dump, error)

// SetBaseline installs the recovery baseline provider. Without one, a
// poisoned journal keeps the store degraded (a standalone store has no
// way to re-checkpoint state it does not hold).
func (s *Store) SetBaseline(fn BaselineFunc) { s.baseline.Store(fn) }

// State reports the durability state machine's current state.
func (s *Store) State() State {
	if s.degraded.Load() {
		return StateDegraded
	}
	return StateHealthy
}

// DegradedErr returns nil while healthy, or the typed fail-fast error
// (wrapping ErrDegraded) mutations must return while degraded.
func (s *Store) DegradedErr() error {
	if !s.degraded.Load() {
		return nil
	}
	if msg, ok := s.lastFault.Load().(string); ok && msg != "" {
		return fmt.Errorf("%w (last fault: %s)", ErrDegraded, msg)
	}
	return ErrDegraded
}

// NextProbeIn reports how long until the prober's next data-dir test
// (zero while healthy) — the Retry-After hint for degraded writes.
func (s *Store) NextProbeIn() time.Duration {
	at := s.nextProbeAt.Load()
	if at == 0 {
		return 0
	}
	d := time.Until(time.Unix(0, at))
	if d < 0 {
		return 0
	}
	return d
}

// withRetry runs one durable operation under the retry schedule: capped
// exponential backoff with jitter between attempts. Success resets the
// consecutive-failure count; exhausting the retries records the failure
// and, at the threshold, trips degraded mode. Retrying stops early when
// the journal is poisoned (re-appending cannot help) or the caller's ctx
// is done.
func (s *Store) withRetry(ctx context.Context, op func() error) error {
	backoff := s.retry.Backoff
	var err error
	for attempt := 0; ; attempt++ {
		err = op()
		if err == nil {
			s.consecFails.Store(0)
			return nil
		}
		if errors.Is(err, errPoisoned) || ctx.Err() != nil || attempt >= s.retry.MaxRetries {
			break
		}
		s.retries.Add(1)
		delay := backoff + time.Duration(rand.Int63n(int64(backoff)/2+1))
		t := time.NewTimer(delay)
		select {
		case <-ctx.Done():
			t.Stop()
		case <-s.stop:
			t.Stop()
		case <-t.C:
		}
		backoff = min(2*backoff, s.retry.MaxBackoff)
	}
	s.opFailed(err)
	return err
}

// opFailed records one operation failure (post-retry) and trips degraded
// mode at the threshold.
func (s *Store) opFailed(err error) {
	s.lastFault.Store(err.Error())
	if s.consecFails.Add(1) >= uint64(s.retry.FailureThreshold) {
		s.degrade()
	}
}

// sweepFailed is the interval-sync analogue of opFailed, counted
// separately so successful page-cache appends between failing sweeps
// cannot mask a dying disk.
func (s *Store) sweepFailed(err error) {
	s.lastFault.Store(err.Error())
	if s.sweepConsec.Add(1) >= uint64(s.retry.FailureThreshold) {
		s.degrade()
	}
}

// degrade trips the state machine (idempotent) and wakes the prober.
func (s *Store) degrade() {
	if !s.degraded.CompareAndSwap(false, true) {
		return
	}
	s.degradations.Add(1)
	now := time.Now()
	s.degradedAt.Store(now.UnixNano())
	s.nextProbeAt.Store(now.Add(s.retry.ProbeInterval).UnixNano())
	select {
	case s.probeWake <- struct{}{}:
	default:
	}
}

// markRecovered returns the machine to healthy after a successful
// probe + baseline re-checkpoint.
func (s *Store) markRecovered() {
	s.consecFails.Store(0)
	s.sweepConsec.Store(0)
	s.nextProbeAt.Store(0)
	s.degradedAt.Store(0)
	s.degraded.Store(false)
	s.recoveries.Add(1)
}

// startProber launches the degraded-mode prober goroutine (idle until
// the first degradation wakes it).
func (s *Store) startProber() {
	s.proberOnce.Do(func() {
		s.wg.Add(1)
		go s.proberLoop()
	})
}

// proberLoop sleeps until a degradation wakes it, then probes the data
// dir on a backed-off schedule; each published next-probe time is what
// serving layers derive Retry-After from. A successful probe triggers
// recovery; recovery failures (the disk answered the probe but not the
// checkpoint) back off and re-probe.
func (s *Store) proberLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stop:
			return
		case <-s.probeWake:
		}
		interval := s.retry.ProbeInterval
		for s.degraded.Load() {
			t := time.NewTimer(time.Until(time.Unix(0, s.nextProbeAt.Load())))
			select {
			case <-s.stop:
				t.Stop()
				return
			case <-t.C:
			}
			s.probes.Add(1)
			interval = min(2*interval, s.retry.MaxProbeInterval)
			s.nextProbeAt.Store(time.Now().Add(interval).UnixNano())
			if err := s.probe(); err != nil {
				s.probeFails.Add(1)
				s.lastFault.Store(err.Error())
				continue
			}
			// The prober owns no caller context: it outlives every request
			// and is cancelled through s.stop at Close instead.
			//lint:ignore ctxfirst background prober has no caller to inherit a deadline from; Close cancels it via the stop channel
			ctx := context.Background()
			if err := s.recoverFromDegraded(ctx); err != nil {
				s.probeFails.Add(1)
				s.lastFault.Store(err.Error())
				continue
			}
			s.markRecovered()
		}
	}
}

// probe re-tests the data directory end to end: create, write, fsync,
// remove. The file carries the temp suffix so a crash mid-probe is swept
// like any other temp leftover.
func (s *Store) probe() error {
	path := filepath.Join(s.dir, "probe.tmp")
	f, err := s.fs.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte("dash durability probe\n")); err != nil {
		//lint:ignore droppederr already failing: the probe-write error is returned; close is best-effort fd cleanup
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		//lint:ignore droppederr already failing: the probe-sync error is returned; close is best-effort fd cleanup
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return s.fs.Remove(path)
}

// recoverFromDegraded restores full service after a successful probe:
// per shard, seal the poisoned journal at the acknowledged extent, write
// a forced fresh checkpoint from the baseline provider's dump, and
// rotate to a new journal — re-establishing the recovery baseline past
// the poisoned segment. Without a baseline provider only intact journals
// can return to service.
func (s *Store) recoverFromDegraded(ctx context.Context) error {
	fn, _ := s.baseline.Load().(BaselineFunc)
	crashPoint("degraded.recover.before-checkpoint")
	for i := range s.shards {
		if err := s.recoverShardDegraded(ctx, i, fn); err != nil {
			return fmt.Errorf("durable: shard %d: degraded recovery: %w", i, err)
		}
	}
	crashPoint("degraded.recover.after-checkpoint")
	return nil
}

func (s *Store) recoverShardDegraded(ctx context.Context, i int, fn BaselineFunc) error {
	// The baseline is dumped before the shard lock is taken: the dash
	// provider dumps under the index's writer lock, and writers hold that
	// lock while they lock the shard (append, checkpoint), so the other
	// order could deadlock. While degraded no append is admitted, so the
	// dump stays the shard's last acknowledged state.
	var d *fragindex.Dump
	if fn != nil {
		var err error
		if d, err = fn(ctx, i); err != nil {
			return err
		}
	}
	ss := s.shards[i]
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.j == nil {
		return ErrClosed
	}
	if fn == nil {
		if ss.j.poisoned {
			return fmt.Errorf("no baseline provider to re-checkpoint past a %w", errPoisoned)
		}
		return ss.j.sync()
	}
	if err := ss.j.seal(s.fs); err != nil {
		return err
	}
	return s.checkpointLocked(ctx, ss, d, true)
}
