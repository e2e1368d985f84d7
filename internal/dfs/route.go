package dfs

import "strings"

// Namespace routing: which shard owns a path. The mapping is part of the
// on-disk format — each DFS shard writes its own WAL stream, a restarted
// daemon keeps appending to its current epoch's streams, and replay applies
// those streams in shard order — so it must never change: a path moved to
// another stream could have its new records replayed before its old ones.
// TestRoutingGolden pins it.
//
// Deep paths route by a root, so a root's whole subtree shares one shard
// (and one WAL stream):
//
//   - Outside the "restore/" namespace the root is the first path segment
//     ("page_views", "in" for "in/c0").
//   - Inside "restore/" the root is the first three segments
//     ("restore/tmp/q7", "restore/sub/s12"): each query's private compile
//     namespace and each injected sub-job output gets its own root.
//
// A restore/ path with fewer than three segments ("restore", "restore/tmp")
// and the empty path are shallow: they route by their full path.

// restoreNS is the system namespace whose layout is minted by the engine
// itself (restore/tmp/qN compile namespaces, restore/sub/sN injections).
const restoreNS = "restore"

// restoreDepth is how many leading segments form a root under restore/:
// "restore/tmp/q7/part0" roots at "restore/tmp/q7".
const restoreDepth = 3

// shardRoot returns the routing root of a path and whether the path is deep
// (see above). Shallow paths return themselves.
func shardRoot(path string) (root string, deep bool) {
	if path == "" {
		return "", false
	}
	first := path
	if i := strings.IndexByte(path, '/'); i >= 0 {
		first = path[:i]
	}
	if first != restoreNS {
		return first, true
	}
	// Under restore/: take the first restoreDepth segments, or declare the
	// path shallow when it has fewer.
	end := 0
	for seg := 0; seg < restoreDepth; seg++ {
		i := strings.IndexByte(path[end:], '/')
		if i < 0 {
			if seg == restoreDepth-1 {
				return path, true
			}
			return path, false
		}
		if seg == restoreDepth-1 {
			return path[:end+i], true
		}
		end += i + 1
	}
	return path, false // unreachable
}

// shardIndex returns the shard owning path in an n-shard namespace: the
// FNV-1a hash of its root (deep paths) or of the full path (shallow ones),
// mod n. n < 2 always returns 0.
func shardIndex(path string, n int) int {
	if n < 2 {
		return 0
	}
	root, _ := shardRoot(path)
	return int(fnv32a(root) % uint32(n))
}

// fnv32a is the 32-bit FNV-1a hash (inlined to keep the hot routing path
// allocation-free; hash/fnv's interface forces a write-through object).
func fnv32a(s string) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= prime32
	}
	return h
}
