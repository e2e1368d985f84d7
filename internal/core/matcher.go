package core

import (
	"repro/internal/physical"
)

// Matching (§3 of the paper). A repository plan matches an input MapReduce
// job when the repository plan (minus its final Store) is *contained* in the
// input job's physical plan: every repository operator has an equivalent
// operator in the input plan. Two operators are equivalent when (1) they
// perform the same function — equal Signature() — and (2) their inputs are
// pairwise equivalent operators or the same stored data sets.
//
// The paper's Algorithm 1 (PairwisePlanTraversal) establishes containment by
// a simultaneous depth-first traversal of both plans starting from their
// Load operators. We perform the same simultaneous traversal anchored at the
// repository plan's terminal operator and walking producer edges — the
// traversal visits exactly the same operator pairs (the repository plan is
// the upstream cone of its terminal), but needs no backtracking over which
// Load pairs up with which, because the pairing is forced by walking inputs
// in argument order.
//
// The scan itself is index-driven: every entry's terminal carries a
// Merkle-style subtree fingerprint (physical.PlanIndex), and the repository
// keeps an inverted index from terminal fingerprint to entries. A traversal
// match forces fingerprint equality (each compared pair has equal signatures
// and recursively fingerprint-equal inputs, with Split tees folded
// identically on both sides), so probing the input plan's fingerprint set
// against that index surfaces a superset of the matchable entries; the
// traversal then runs only on hash-equal candidates, as collision
// verification. FindBestMatchNaive retains the exhaustive reference scan —
// the equivalence property test compares the two paths' answers,
// TestPropertyProbesSublinear their probe counts, and
// BenchmarkFindBestMatch{Indexed,Naive} their time.

// MatchResult describes a successful containment: Terminal is the input-plan
// operator equivalent to the repository plan's last operator before its
// Store — the operator whose output the stored file holds.
type MatchResult struct {
	Entry    *Entry
	Terminal *physical.Operator
	// Mapping pairs repository operator IDs with input operator IDs.
	Mapping map[int]int
}

// MatchStats counts matcher probe work. A probe is one pairwise-traversal
// attempt (one candidate input operator verified against one entry's
// terminal); index hits are entries surfaced by the fingerprint index;
// fallback scans are entries probed exhaustively because their plans contain
// Split operators the fingerprint cannot summarize (never produced by the
// enumerator, defensively supported). Accumulated per call; callers fold
// them into core.Stats for the /v1/metrics reuse block.
type MatchStats struct {
	Probes        int64 `json:"probes"`
	IndexHits     int64 `json:"indexHits"`
	FallbackScans int64 `json:"fallbackScans"`
}

// Add folds another accumulation into s.
func (s *MatchStats) Add(o MatchStats) {
	s.Probes += o.Probes
	s.IndexHits += o.IndexHits
	s.FallbackScans += o.FallbackScans
}

// Match tests whether the entry's plan is contained in the input plan. On
// success it returns the input operator that computes the stored output.
// Every input operator is tried as the image of the repository terminal
// (the reference semantics; FindBestMatchExcluding narrows the candidates
// through the fingerprint index first).
func Match(input *physical.Plan, e *Entry) (*MatchResult, bool) {
	return matchEntry(input, physical.IndexPlan(input), e, allOpIDs(input), nil)
}

// allOpIDs returns every operator ID of the plan, ascending — the naive
// candidate list.
func allOpIDs(p *physical.Plan) []int {
	ops := p.Ops()
	ids := make([]int, len(ops))
	for i, o := range ops {
		ids[i] = o.ID
	}
	return ids
}

// matchEntry runs the candidate scan of Match over an explicit candidate
// list (input operator IDs, ascending): each candidate is verified by the
// pairwise traversal as the image of the entry's terminal, and the first
// success wins — identical semantics whether the list came from the
// fingerprint index or is the full operator set. One mapping map is reused
// across candidates (cleared between attempts) instead of allocating per
// operator; on success the map escapes into the MatchResult and the scan
// stops.
func matchEntry(input *physical.Plan, inIx *physical.PlanIndex, e *Entry, candIDs []int, st *MatchStats) (*MatchResult, bool) {
	repoTerm := e.Plan.Op(e.terminal)
	if repoTerm == nil || len(candIDs) == 0 {
		return nil, false
	}
	repoIx := e.index()
	mapping := make(map[int]int, e.matchSize)
	for _, id := range candIDs {
		cand := input.Op(id)
		if cand == nil {
			continue
		}
		if st != nil {
			st.Probes++
		}
		clear(mapping)
		if pairwiseTraversal(input, inIx, cand, e.Plan, repoIx, repoTerm, mapping) {
			// A match that is already a Load of this entry's output is a
			// no-op rewrite; report no match to keep rewriting terminating.
			if cand.Kind == physical.OpLoad && cand.Path == e.OutputPath {
				continue
			}
			return &MatchResult{Entry: e, Terminal: cand, Mapping: mapping}, true
		}
	}
	return nil, false
}

// pairwiseTraversal is the simultaneous DFS of Algorithm 1: it checks that
// inOp is equivalent to repoOp, recursing over their producers pairwise.
// mapping accumulates repoOpID -> inOpID and enforces consistency when the
// repository plan's DAG shares operators between branches. Signatures are
// read from the plans' memoized indexes, never re-derived.
func pairwiseTraversal(input *physical.Plan, inIx *physical.PlanIndex, inOp *physical.Operator, repo *physical.Plan, repoIx *physical.PlanIndex, repoOp *physical.Operator, mapping map[int]int) bool {
	if prev, ok := mapping[repoOp.ID]; ok {
		return prev == inOp.ID
	}
	if inIx.Signature(inOp.ID) != repoIx.Signature(repoOp.ID) {
		return false
	}
	if len(inOp.Inputs) != len(repoOp.Inputs) {
		return false
	}
	mapping[repoOp.ID] = inOp.ID
	for i, repoIn := range repoOp.Inputs {
		rp := repo.Op(repoIn)
		ip := input.Op(inOp.Inputs[i])
		if rp == nil || ip == nil {
			delete(mapping, repoOp.ID)
			return false
		}
		// Splits are transparent tees: skip them on the input side so a
		// previously injected materialization point does not break
		// equivalence.
		for ip.Kind == physical.OpSplit {
			ip = input.Op(ip.Inputs[0])
			if ip == nil {
				delete(mapping, repoOp.ID)
				return false
			}
		}
		if !pairwiseTraversal(input, inIx, ip, repo, repoIx, rp, mapping) {
			delete(mapping, repoOp.ID)
			return false
		}
	}
	return true
}

// FindBestMatch scans the repository in §3 order and returns the first (and
// therefore best) entry contained in the input plan.
func FindBestMatch(input *physical.Plan, repo *Repository) (*MatchResult, bool) {
	return FindBestMatchExcluding(input, repo, nil)
}

// FindBestMatchExcluding is FindBestMatch with a skip set of entry IDs the
// caller has ruled out for this workflow (e.g. a user-named stored output a
// concurrent workflow is currently writing).
func FindBestMatchExcluding(input *physical.Plan, repo *Repository, skip map[string]bool) (*MatchResult, bool) {
	return FindBestMatchProbed(input, repo, skip, nil)
}

// FindBestMatchProbed is the index-driven §3 scan: it fingerprints the input
// plan once, probes the repository's terminal-fingerprint index with the
// input's per-operator fingerprint set, and verifies only the surfaced
// candidates — in exact §3 match order, so the first verified candidate is
// the same "best" entry the naive full scan returns, with the same terminal
// and mapping. st, when non-nil, accumulates probe counts.
func FindBestMatchProbed(input *physical.Plan, repo *Repository, skip map[string]bool, st *MatchStats) (*MatchResult, bool) {
	inIx := physical.IndexPlan(input)
	cands, hits, fallback := repo.probeCandidates(inIx)
	if st != nil {
		st.IndexHits += hits
		st.FallbackScans += fallback
	}
	for _, e := range cands {
		if skip[e.ID] {
			continue
		}
		candIDs := inIx.OpsWithFingerprint(e.termFP)
		if !e.indexable {
			candIDs = allOpIDs(input)
		}
		if m, ok := matchEntry(input, inIx, e, candIDs, st); ok {
			return m, true
		}
	}
	return nil, false
}

// FindBestMatchNaive is the retained reference implementation: the
// exhaustive §3 scan trying every input operator against every entry. The
// equivalence property test asserts it returns the same entry and mapping
// as FindBestMatchProbed; TestPropertyProbesSublinear pins the gap in
// probes as the repository grows.
func FindBestMatchNaive(input *physical.Plan, repo *Repository, skip map[string]bool, st *MatchStats) (*MatchResult, bool) {
	inIx := physical.IndexPlan(input)
	candIDs := allOpIDs(input)
	for _, e := range repo.Ordered() {
		if skip[e.ID] {
			continue
		}
		if m, ok := matchEntry(input, inIx, e, candIDs, st); ok {
			return m, true
		}
	}
	return nil, false
}

// Subsumes reports whether entry A's plan contains entry B's plan (used by
// ordering diagnostics and tests; the scan order guarantees subsumers come
// first without computing this per pair). A corrupt or unfinished entry
// (nil terminal) subsumes nothing and is subsumed by nothing.
func Subsumes(a, b *Entry) bool {
	bTerm := b.Plan.Op(b.terminal)
	if bTerm == nil {
		return false
	}
	aIx := a.index()
	bIx := b.index()
	mapping := make(map[int]int, b.matchSize)
	for _, cand := range a.Plan.Ops() {
		clear(mapping)
		if pairwiseTraversal(a.Plan, aIx, cand, b.Plan, bIx, bTerm, mapping) {
			return true
		}
	}
	return false
}
