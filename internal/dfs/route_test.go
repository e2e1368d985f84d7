package dfs

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
)

func TestRootDepthRule(t *testing.T) {
	cases := []struct {
		path string
		root string
		deep bool
	}{
		{"page_views", "page_views", true},
		{"users", "users", true},
		{"in/c0", "in", true},
		{"out/c3/q2/part0", "out", true},
		{"restore/tmp/q7", "restore/tmp/q7", true},
		{"restore/tmp/q7/j1-out", "restore/tmp/q7", true},
		{"restore/sub/s12", "restore/sub/s12", true},
		{"restore/tmp", "restore/tmp", false},
		{"restore", "restore", false},
		{"", "", false},
	}
	for _, c := range cases {
		root, deep := shardRoot(c.path)
		if root != c.root || deep != c.deep {
			t.Errorf("shardRoot(%q) = (%q, %v), want (%q, %v)", c.path, root, deep, c.root, c.deep)
		}
	}
}

func TestIndexStableAndBounded(t *testing.T) {
	paths := []string{"page_views", "in/c0", "out/c1/q1", "restore/tmp/q1", "restore/tmp/q1/x", "restore/tmp", ""}
	for _, p := range paths {
		for _, n := range []int{1, 2, 4, 8, 13} {
			i := shardIndex(p, n)
			if i < 0 || i >= max(n, 1) {
				t.Fatalf("shardIndex(%q, %d) = %d out of range", p, n, i)
			}
			if j := shardIndex(p, n); j != i {
				t.Fatalf("shardIndex(%q, %d) unstable: %d then %d", p, n, i, j)
			}
		}
	}
}

func TestSubtreeColocates(t *testing.T) {
	const n = 8
	for _, base := range []string{"out/c3", "restore/tmp/q7", "restore/sub/s12", "page_views"} {
		want := shardIndex(base, n)
		for _, suffix := range []string{"/part0", "/a/b/c", "/x"} {
			if got := shardIndex(base+suffix, n); got != want {
				t.Errorf("shardIndex(%q) = %d, want %d (same as %q)", base+suffix, got, want, base)
			}
		}
	}
}

// routingGoldenShards are the shard counts testdata/routing_golden.txt
// records for every path, in column order.
var routingGoldenShards = []int{2, 3, 4, 8}

// TestRoutingGolden pins the routing byte for byte. Each line of the golden
// is a quoted path followed by its shard at each of routingGoldenShards.
// The file was generated from the routing every earlier build used, so a
// state directory written by any of them keeps routing each path to the
// stream that holds its history.
func TestRoutingGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/routing_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(lines) < 200 {
		t.Fatalf("golden covers %d paths, want at least 200", len(lines))
	}
	var got strings.Builder
	for _, line := range lines {
		quoted, err := strconv.QuotedPrefix(line)
		if err != nil {
			t.Fatalf("golden line %q: %v", line, err)
		}
		path, _ := strconv.Unquote(quoted)
		got.WriteString(quoted)
		for _, n := range routingGoldenShards {
			fmt.Fprintf(&got, " %d", shardIndex(path, n))
		}
		got.WriteByte('\n')
	}
	if got.String() != string(want) {
		t.Fatalf("routing differs from testdata/routing_golden.txt:\n%s", got.String())
	}
}

// FuzzShardKey checks the routing is total, bounded and stable for any
// path and shard count, and that a deep path routes with its root (a
// root's whole subtree shares one shard and one WAL stream).
func FuzzShardKey(f *testing.F) {
	f.Add("page_views", "page_views/part0", 8)
	f.Add("restore/tmp/q1", "restore/tmp/q1/j2-out", 8)
	f.Add("restore/tmp", "restore/tmp/q9", 4)
	f.Add("restore", "restore/sub/s3", 5)
	f.Add("in/c0", "in/c1", 2)
	f.Add("out/a", "out/ab", 3)
	f.Add("", "x", 7)
	f.Fuzz(func(t *testing.T, a, b string, n int) {
		if n < 1 || n > 64 {
			n = 1 + (abs(n) % 64)
		}
		for _, p := range []string{a, b} {
			i := shardIndex(p, n)
			if i < 0 || i >= n {
				t.Fatalf("shardIndex(%q, %d) = %d out of range", p, n, i)
			}
			if j := shardIndex(p, n); j != i {
				t.Fatalf("shardIndex(%q, %d) unstable: %d then %d", p, n, i, j)
			}
			if root, deep := shardRoot(p); deep && shardIndex(root, n) != i {
				t.Fatalf("deep path %q shard %d != root %q shard %d", p, i, root, shardIndex(root, n))
			}
		}
	})
}

func abs(n int) int {
	if n < 0 {
		if n == -n { // MinInt
			return 0
		}
		return -n
	}
	return n
}
