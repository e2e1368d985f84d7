package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// Errors surfaced to HTTP handlers as 503s.
var (
	errShuttingDown = errors.New("server: shutting down")
	errQueueFull    = errors.New("server: execution queue full")
)

// scheduler runs DFS-mutating work — query execution, dataset writes,
// checkpoints — on a bounded number of worker slots, FIFO. It decides how
// much runs at once and how much may wait, never what may overlap: that is
// the System's lease table (restore.AccessSet, access.go), which every task
// acquires inside its slot. A bounded queue turns overload into
// backpressure (errQueueFull -> 503) instead of unbounded memory growth.
type scheduler struct {
	mu      sync.Mutex
	closed  bool
	queue   []func()
	running int

	workers  int
	maxQueue int

	depth   atomic.Int64 // queued + running (metrics)
	done    chan struct{}
	doneSet bool
}

func newScheduler(queueDepth, workers int) *scheduler {
	if queueDepth < 1 {
		queueDepth = 256
	}
	if workers < 1 {
		workers = 1
	}
	return &scheduler{workers: workers, maxQueue: queueDepth, done: make(chan struct{})}
}

// submit runs fn on a free worker slot, or queues it behind the work
// already waiting for one. It never blocks: a full queue is reported as
// errQueueFull so callers can shed load. Only the queued backlog is
// bounded; running tasks occupy worker slots, not queue capacity.
func (s *scheduler) submit(fn func()) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.closed:
		return errShuttingDown
	case s.running < s.workers:
		s.running++
		go s.work(fn)
	case len(s.queue) >= s.maxQueue:
		return errQueueFull
	default:
		s.queue = append(s.queue, fn)
	}
	s.depth.Add(1)
	return nil
}

// run is submit that also waits for fn to finish.
func (s *scheduler) run(fn func()) error {
	done := make(chan struct{})
	if err := s.submit(func() {
		defer close(done)
		fn()
	}); err != nil {
		return err
	}
	<-done
	return nil
}

// work occupies one worker slot: it runs fn, then the queue head, until the
// queue is empty.
func (s *scheduler) work(fn func()) {
	for {
		fn()
		s.depth.Add(-1)
		s.mu.Lock()
		if len(s.queue) == 0 {
			s.running--
			s.maybeFinishLocked()
			s.mu.Unlock()
			return
		}
		fn, s.queue[0] = s.queue[0], nil // drop the backing array's reference
		s.queue = s.queue[1:]
		s.mu.Unlock()
	}
}

// maybeFinishLocked closes done once the scheduler is closed and fully
// drained (work only queues while every slot is busy, so no running slot
// means no queue either).
func (s *scheduler) maybeFinishLocked() {
	if s.closed && !s.doneSet && s.running == 0 {
		s.doneSet = true
		close(s.done)
	}
}

// queueDepth reports the number of queued-or-running tasks.
func (s *scheduler) queueDepth() int64 { return s.depth.Load() }

// executing reports the number of occupied worker slots.
func (s *scheduler) executing() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int64(s.running)
}

// close stops accepting new work, runs everything already queued, and
// returns once the workers have drained. Idempotent.
func (s *scheduler) close() {
	s.closeWithin(context.Background())
}

// closeWithin is close bounded by ctx: it reports whether the drain
// finished. On timeout the workers keep draining in the background (their
// waiters would otherwise hang), but the caller stops waiting — a daemon
// under a supervisor's kill grace period must checkpoint what it has
// rather than block on a deep queue.
func (s *scheduler) closeWithin(ctx context.Context) bool {
	s.mu.Lock()
	s.closed = true
	s.maybeFinishLocked()
	s.mu.Unlock()
	select {
	case <-s.done:
		return true
	case <-ctx.Done():
		return false
	}
}
