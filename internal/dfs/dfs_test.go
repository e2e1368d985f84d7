package dfs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/types"
)

func tupleN(n int64) types.Tuple {
	return types.Tuple{types.NewInt(n), types.NewString("payload")}
}

func TestCreateCommitRead(t *testing.T) {
	fs := New()
	if _, err := fs.Create("data/x", 2); err != nil {
		t.Fatal(err)
	}
	var buf writeBuffer
	w := types.NewWriter(&buf)
	for i := int64(0); i < 5; i++ {
		if err := w.Write(tupleN(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := fs.CommitPartition("data/x", 0, buf.b, 5); err != nil {
		t.Fatal(err)
	}
	st, err := fs.StatFile("data/x")
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 5 || st.Partitions != 2 || st.Bytes != int64(len(buf.b)) {
		t.Errorf("stat = %+v", st)
	}

	data, err := fs.ReadPartitionRaw("data/x", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != len(buf.b) {
		t.Errorf("partition size = %d", len(data))
	}
	r := types.NewSliceReader(data)
	count := 0
	for {
		_, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		count++
	}
	if count != 5 {
		t.Errorf("read %d records", count)
	}
}

func TestErrors(t *testing.T) {
	fs := New()
	if _, err := fs.StatFile("missing"); !errors.Is(err, ErrNotExist) {
		t.Errorf("stat missing: %v", err)
	}
	if err := fs.Delete("missing"); !errors.Is(err, ErrNotExist) {
		t.Errorf("delete missing: %v", err)
	}
	if err := fs.CommitPartition("missing", 0, nil, 0); !errors.Is(err, ErrNotExist) {
		t.Errorf("commit missing: %v", err)
	}
	if _, err := fs.Create("", 1); err == nil {
		t.Error("create empty path should fail")
	}
	if _, err := fs.Create("f", 1); err != nil {
		t.Fatal(err)
	}
	if err := fs.CommitPartition("f", 3, nil, 0); err == nil {
		t.Error("commit out-of-range partition should fail")
	}
	if _, err := fs.ReadPartitionRaw("f", 9); err == nil {
		t.Error("open out-of-range partition should fail")
	}
}

func TestVersionBumpsOnRewrite(t *testing.T) {
	fs := New()
	v1, err := fs.Create("a", 1)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := fs.Create("a", 1) // truncate/rewrite
	if err != nil {
		t.Fatal(err)
	}
	if v2 <= v1 {
		t.Errorf("version did not advance: %d -> %d", v1, v2)
	}
	got, err := fs.Version("a")
	if err != nil || got != v2 {
		t.Errorf("Version = %d, %v", got, err)
	}
	if err := fs.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Version("a"); !errors.Is(err, ErrNotExist) {
		t.Errorf("version of deleted file: %v", err)
	}
}

func TestWriteTuplesAndReadAll(t *testing.T) {
	fs := New()
	schema := types.SchemaFromNames("n", "s")
	in := []types.Tuple{tupleN(1), tupleN(2), tupleN(3)}
	if err := fs.WriteTuples("d", schema, in); err != nil {
		t.Fatal(err)
	}
	out, err := fs.ReadAll("d")
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("got %d tuples", len(out))
	}
	for i := range in {
		if !types.EqualTuples(in[i], out[i]) {
			t.Errorf("tuple %d: %v != %v", i, in[i], out[i])
		}
	}
	s, err := fs.SchemaOf("d")
	if err != nil || s.Len() != 2 {
		t.Errorf("schema = %v, %v", s, err)
	}
}

func TestWritePartitionedSpreadsRecords(t *testing.T) {
	fs := New()
	var in []types.Tuple
	for i := int64(0); i < 10; i++ {
		in = append(in, tupleN(i))
	}
	if err := fs.WritePartitioned("p", types.Schema{}, in, 4); err != nil {
		t.Fatal(err)
	}
	n, err := fs.Partitions("p")
	if err != nil || n != 4 {
		t.Fatalf("partitions = %d, %v", n, err)
	}
	out, err := fs.ReadAll("p")
	if err != nil || len(out) != 10 {
		t.Fatalf("read %d tuples, %v", len(out), err)
	}
}

func TestListAndTotalBytes(t *testing.T) {
	fs := New()
	for _, p := range []string{"restore/sub1", "restore/sub2", "base/users"} {
		if err := fs.WriteTuples(p, types.Schema{}, []types.Tuple{tupleN(1)}); err != nil {
			t.Fatal(err)
		}
	}
	got := fs.List("restore/")
	if len(got) != 2 || got[0] != "restore/sub1" || got[1] != "restore/sub2" {
		t.Errorf("List = %v", got)
	}
	if fs.TotalBytes("restore/sub1", "missing") == 0 {
		t.Error("TotalBytes should count existing files and skip missing")
	}
}

func TestCountersAccumulate(t *testing.T) {
	fs := New()
	if err := fs.WriteTuples("c", types.Schema{}, []types.Tuple{tupleN(1), tupleN(2)}); err != nil {
		t.Fatal(err)
	}
	w0, r0 := fs.Counters()
	if w0 == 0 {
		t.Error("bytesWritten should be counted")
	}
	if _, err := fs.ReadAll("c"); err != nil {
		t.Fatal(err)
	}
	_, r1 := fs.Counters()
	if r1 <= r0 {
		t.Error("bytesRead should advance on reads")
	}
}

func TestConcurrentCommits(t *testing.T) {
	fs := New()
	const parts = 16
	if _, err := fs.Create("conc", parts); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < parts; i++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			var buf writeBuffer
			w := types.NewWriter(&buf)
			for j := 0; j < 100; j++ {
				if err := w.Write(tupleN(int64(idx*100 + j))); err != nil {
					t.Error(err)
					return
				}
			}
			if err := w.Flush(); err != nil {
				t.Error(err)
				return
			}
			if err := fs.CommitPartition("conc", idx, buf.b, 100); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	st, err := fs.StatFile("conc")
	if err != nil || st.Records != parts*100 {
		t.Errorf("stat = %+v, %v", st, err)
	}
}

func TestSetReplicationClamps(t *testing.T) {
	fs := New()
	fs.SetReplication(0)
	if fs.Replication() != 1 {
		t.Errorf("replication = %d, want clamp to 1", fs.Replication())
	}
	fs.SetReplication(3)
	if fs.Replication() != 3 {
		t.Errorf("replication = %d", fs.Replication())
	}
}

// TestShardLocksAreIndependent pins what sharding the namespace buys, without
// a clock: while the test holds one shard's write lock, a Create +
// CommitPartition on a path another shard owns completes, and one on a path
// the held shard owns does not until the lock is released.
func TestShardLocksAreIndependent(t *testing.T) {
	fs := NewSharded(4)
	const held = "held/f"
	free := ""
	for i := 0; free == ""; i++ {
		if p := fmt.Sprintf("free%d/f", i); fs.shardOf(p) != fs.shardOf(held) {
			free = p
		}
	}
	// write starts the two mutations on path and delivers the version its
	// Create was assigned (versions are handed out under the shard lock).
	write := func(path string) <-chan uint64 {
		started, done := make(chan struct{}), make(chan uint64, 1)
		go func() {
			close(started)
			v, err := fs.Create(path, 1)
			if err == nil {
				err = fs.CommitPartition(path, 0, []byte("x"), 1)
			}
			if err != nil {
				t.Error(err)
			}
			done <- v
		}()
		<-started
		return done
	}

	sh := fs.shardOf(held)
	sh.mu.Lock()
	heldDone := write(held)
	var freeV uint64
	select {
	case freeV = <-write(free):
	case <-time.After(10 * time.Second):
		sh.mu.Unlock()
		t.Fatal("a write to another shard waited on the held shard's lock")
	}
	select {
	case <-heldDone:
		sh.mu.Unlock()
		t.Fatal("a write to the held shard completed under its lock")
	default:
	}
	sh.mu.Unlock()
	if heldV := <-heldDone; heldV <= freeV {
		t.Errorf("held-shard write got version %d, not after the free shard's %d it was started before", heldV, freeV)
	}
}

// aliasedRows writes rows with fresh strings to a new FS, decodes its
// partition with the slice reader, checks that every decoded string aliases
// the committed bytes, and returns the tuples with copies of the strings they
// must hold. Nothing else refers to the FS, the partition slice or the
// written strings once it returns.
func aliasedRows(t *testing.T) ([]types.Tuple, []string) {
	fs := New()
	var in []types.Tuple
	var want []string
	for i := 0; i < 200; i++ {
		s := fmt.Sprintf("row-%03d-%s", i, strings.Repeat("x", i%37))
		in = append(in, types.Tuple{types.NewInt(int64(i)), types.NewString(s)})
		want = append(want, strings.Clone(s))
	}
	if err := fs.WriteTuples("data/alias", types.Schema{}, in); err != nil {
		t.Fatal(err)
	}
	data, err := fs.ReadPartitionRaw("data/alias", 0)
	if err != nil {
		t.Fatal(err)
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(data)))
	hi := lo + uintptr(len(data))
	var out []types.Tuple
	r := types.NewSliceReader(data)
	for {
		tu, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if p := uintptr(unsafe.Pointer(unsafe.StringData(tu[1].Str()))); p < lo || p >= hi {
			t.Fatalf("row %d: string does not alias the partition bytes", len(out))
		}
		out = append(out, tu)
	}
	return out, want
}

// TestAliasedStringsSurviveGC: strings decoded in place from a partition
// keep its bytes alive, intact, after every other reference to the FS and
// the partition is gone and the collector has run.
func TestAliasedStringsSurviveGC(t *testing.T) {
	rows, want := aliasedRows(t)
	if len(rows) != len(want) {
		t.Fatalf("decoded %d rows, wrote %d", len(rows), len(want))
	}
	runtime.GC()
	runtime.GC()
	// Fresh allocations would land on the partition's memory had it been
	// freed.
	junk := make([][]byte, 64)
	for i := range junk {
		junk[i] = bytes.Repeat([]byte{0xAA}, 4096)
	}
	for i, tu := range rows {
		if got := tu[1].Str(); got != want[i] || tu[0].Int() != int64(i) {
			t.Fatalf("row %d = (%d, %q), want (%d, %q)", i, tu[0].Int(), got, i, want[i])
		}
	}
	runtime.KeepAlive(junk)
}
