// Package mapred is the from-scratch MapReduce engine that stands in for
// Hadoop. A Job executes one physical plan containing at most one blocking
// operator: the operators upstream of the blocking operator run in parallel
// map tasks (one per input partition), the blocking operator is realized by
// a hash-partitioned sort shuffle, and the operators downstream run in
// reduce tasks. Jobs really execute — outputs are real tuples in the
// simulated DFS — while wall-clock time is modeled by internal/cluster.
package mapred

import (
	"fmt"
	"sort"

	"repro/internal/physical"
)

// Job is one MapReduce job: a physical plan plus its map/reduce split.
type Job struct {
	ID   string
	Plan *physical.Plan

	blocking   *physical.Operator
	mapSide    map[int]bool // operator IDs executed in map tasks
	reduceSide map[int]bool // operator IDs executed in reduce tasks (excludes blocking)
}

// NewJob validates the plan (structure and the at-most-one-blocking-operator
// rule) and computes the map/reduce split.
func NewJob(id string, plan *physical.Plan) (*Job, error) {
	if err := plan.Validate(); err != nil {
		return nil, fmt.Errorf("mapred: job %s: %w", id, err)
	}
	j := &Job{ID: id, Plan: plan, mapSide: make(map[int]bool), reduceSide: make(map[int]bool)}
	for _, o := range plan.Ops() {
		if o.Kind.Blocking() {
			if j.blocking != nil {
				return nil, fmt.Errorf("mapred: job %s: two blocking operators (%s and %s); the compiler must cut jobs at shuffle boundaries", id, j.blocking, o)
			}
			j.blocking = o
		}
	}
	if j.blocking == nil {
		for _, o := range plan.Ops() {
			j.mapSide[o.ID] = true
		}
		return j, nil
	}
	// Reduce side: strict descendants of the blocking operator.
	desc := descendants(plan, j.blocking.ID)
	for _, o := range plan.Ops() {
		switch {
		case o.ID == j.blocking.ID:
		case desc[o.ID]:
			j.reduceSide[o.ID] = true
		default:
			j.mapSide[o.ID] = true
		}
	}
	// The blocking operator must be a descendant of every map-side
	// non-Store sink; otherwise tuples from some branch would have nowhere
	// to go. Validate()'s consumer check plus single-blocking rule already
	// guarantee this for compiler-produced plans.
	return j, nil
}

func descendants(p *physical.Plan, id int) map[int]bool {
	out := make(map[int]bool)
	var walk func(int)
	walk = func(cur int) {
		for _, c := range p.Consumers(cur) {
			if !out[c.ID] {
				out[c.ID] = true
				walk(c.ID)
			}
		}
	}
	walk(id)
	return out
}

// Blocking returns the job's blocking operator, or nil for map-only jobs.
func (j *Job) Blocking() *physical.Operator { return j.blocking }

// MapSide reports whether the operator runs in the map phase.
func (j *Job) MapSide(id int) bool { return j.mapSide[id] }

// InputPaths returns the DFS paths the job loads, sorted and deduplicated.
func (j *Job) InputPaths() []string {
	seen := make(map[string]bool)
	var out []string
	for _, o := range j.Plan.Sources() {
		if !seen[o.Path] {
			seen[o.Path] = true
			out = append(out, o.Path)
		}
	}
	sort.Strings(out)
	return out
}

// OutputPaths returns every DFS path the job stores to (including injected
// sub-job stores), sorted.
func (j *Job) OutputPaths() []string {
	var out []string
	for _, o := range j.Plan.Sinks() {
		out = append(out, o.Path)
	}
	sort.Strings(out)
	return out
}
