package server

import (
	"sync"
	"testing"
)

// TestSchedulerSerializesAndDrains pins the one-worker mode: tasks run one
// at a time in submission order, close runs everything already queued
// before it returns, and later submissions are refused.
func TestSchedulerSerializesAndDrains(t *testing.T) {
	s := newScheduler(16, 1)
	var active, maxActive int64
	var order []int
	var mu sync.Mutex
	for i := 0; i < 10; i++ {
		i := i
		err := s.submit(func() {
			mu.Lock()
			active++
			if active > maxActive {
				maxActive = active
			}
			order = append(order, i)
			active--
			mu.Unlock()
		})
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
	}
	s.close()
	if maxActive != 1 {
		t.Errorf("max concurrent tasks = %d, want 1", maxActive)
	}
	if len(order) != 10 {
		t.Fatalf("ran %d tasks before close returned, want 10", len(order))
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("tasks ran in order %v, want FIFO", order)
		}
	}
	if err := s.submit(func() {}); err != errShuttingDown {
		t.Errorf("submit after close = %v, want errShuttingDown", err)
	}
	if d, e := s.queueDepth(), s.executing(); d != 0 || e != 0 {
		t.Errorf("drained scheduler reports depth=%d executing=%d, want 0/0", d, e)
	}
}

func TestSchedulerQueueFull(t *testing.T) {
	s := newScheduler(1, 1)
	defer s.close()
	block := make(chan struct{})
	defer close(block)
	if err := s.submit(func() { <-block }); err != nil {
		t.Fatal(err)
	}
	// The single slot is occupied by the blocked task: one more submission
	// fits the queue, the next must be rejected.
	if err := s.submit(func() {}); err != nil {
		t.Fatalf("queue of one refused its first waiter: %v", err)
	}
	if err := s.submit(func() {}); err != errQueueFull {
		t.Fatalf("expected errQueueFull, got %v", err)
	}
	if d, e := s.queueDepth(), s.executing(); d != 2 || e != 1 {
		t.Errorf("depth=%d executing=%d, want 2 (one running + one queued) and 1", d, e)
	}
}

// TestSchedulerRunsDisjointConcurrently is the smallest check of the worker
// pool: two blocking tasks must be in flight at once. (The scheduler does
// not know what its tasks touch; whether two of them may overlap is the
// lease table's decision, tested in the root package.)
func TestSchedulerRunsDisjointConcurrently(t *testing.T) {
	s := newScheduler(16, 4)
	defer s.close()
	both := make(chan struct{})
	arrived := make(chan struct{}, 2)
	for i := 0; i < 2; i++ {
		if err := s.submit(func() {
			arrived <- struct{}{}
			<-both
		}); err != nil {
			t.Fatal(err)
		}
	}
	<-arrived
	<-arrived // both running before either is released: true concurrency
	close(both)
}
