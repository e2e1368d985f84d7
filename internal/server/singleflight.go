package server

import (
	"sync"
	"sync/atomic"

	restore "repro"
)

// Single-flight deduplication: under real traffic the dominant reuse case is
// the degenerate one — many clients submitting the *same* query at the same
// time. Instead of executing each copy (each after the first reusing the
// previous one's stored output), the first submission becomes the flight
// leader and every identical in-flight submission waits for and shares its
// result.
//
// Flights are keyed on restore.Prepared.FlightKey — the canonical
// fingerprint of the prepared workflow's plans — not on the script text, so
// submissions that differ only in whitespace, variable names, or statement
// formatting still share one flight (they compile to identical canonical
// plans writing the same outputs).

// flightOutcome is what a flight produces: the execution result, plus the
// reply's encoded rows object (readRows) when any member asked for rows —
// read by the leader inside the execution's lease and pins or the fast
// path's pin window, where no conflicting writer or concurrent eviction can
// touch the files.
type flightOutcome struct {
	res  *restore.Result
	rows []byte
	err  error
}

type flightCall struct {
	done chan struct{}
	out  flightOutcome
	// wantRows is set by any flight member that asked for output rows.
	// Joiners set it under the group mutex while the flight is still in the
	// map, so the value the leader reads from seal — which removes the
	// flight from the map under the same mutex — is final and complete: no
	// joiner can arrive after seal, and none that arrived before it is
	// missed.
	wantRows atomic.Bool
	// sealed guards against double removal; protected by the group mutex.
	sealed bool
}

// flightHandle is the leader's control over its open flight, passed to the
// flight function.
type flightHandle struct {
	g   *flightGroup
	key string
	c   *flightCall
}

// wantRows reports whether any flight member so far asked for output rows.
// More may still join until seal; use seal for the final answer.
func (h *flightHandle) wantRows() bool { return h.c.wantRows.Load() }

// seal closes the flight to new joiners — the key is removed from the
// group, so later identical submissions start a fresh flight — and returns
// the now-final wantRows. The leader calls it from inside its execution's
// lease (or the fast path's pin window) before reading rows: every joiner
// that will ever share this outcome is accounted for at that point, so the
// one protected rows read covers them all. Idempotent; do calls it as a
// backstop after the flight function returns.
func (h *flightHandle) seal() bool {
	h.g.mu.Lock()
	if !h.c.sealed {
		h.c.sealed = true
		delete(h.g.flights, h.key)
	}
	h.g.mu.Unlock()
	return h.c.wantRows.Load()
}

// flightGroup is a minimal single-flight group over query results.
type flightGroup struct {
	mu      sync.Mutex
	flights map[string]*flightCall
}

// do executes fn for the first caller of key and hands every concurrent
// caller of the same key the leader's outcome. shared reports whether this
// caller joined an existing flight. wantRows records this caller's interest
// in output rows on the flight; fn receives a handle to check it and to
// seal the flight from inside the execution's lease. Once a flight is sealed
// (at the latest when fn returns) its key is released, so later submissions
// execute again (and hit the repository's stored outputs instead).
func (g *flightGroup) do(key string, wantRows bool, fn func(h *flightHandle) flightOutcome) (out flightOutcome, shared bool) {
	g.mu.Lock()
	if g.flights == nil {
		g.flights = make(map[string]*flightCall)
	}
	if c, ok := g.flights[key]; ok {
		if wantRows {
			c.wantRows.Store(true)
		}
		g.mu.Unlock()
		<-c.done
		return c.out, true
	}
	c := &flightCall{done: make(chan struct{})}
	c.wantRows.Store(wantRows)
	g.flights[key] = c
	g.mu.Unlock()

	h := &flightHandle{g: g, key: key, c: c}
	c.out = fn(h)
	// Backstop for flight functions that never reached their seal point
	// (scheduler rejection, execution error).
	h.seal()
	close(c.done)
	return c.out, false
}
