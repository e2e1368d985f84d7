package server

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"

	restore "repro"
)

// benchmarkHotSubmit drives repeated submissions of one query through a
// daemon; hot=true registers final outputs so every repeat after the first
// is served by the admission-time fast path, hot=false disables both hot
// layers (no plan cache, no whole-query match possible) so repeats pay the
// full prepare+schedule+execute path. Each reply carries the lines of
// pages that pass hotQuery's filter (views > 1).
func benchmarkHotSubmit(b *testing.B, hot bool, pages []string) {
	opts := []restore.Option{restore.WithRegisterFinalOutputs(hot)}
	if !hot {
		opts = append(opts, restore.WithPlanCache(0))
	}
	srv, err := New(Config{System: restore.New(opts...)})
	if err != nil {
		b.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer func() {
		hs.Close()
		if err := srv.Close(context.Background()); err != nil {
			b.Errorf("close: %v", err)
		}
	}()
	c := NewClient(hs.URL)
	if _, err := c.Upload("data/pages", pagesSchema, 2, pages); err != nil {
		b.Fatal(err)
	}
	if _, err := c.Submit(hotQuery, true); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Submit(hotQuery, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServerHot prices the repeat-query request with the zero-compile
// hot path on (plan cache + result fast path) vs off (recompile and
// re-execute every repeat), on a 3-row reply; rows prices the hot path's
// row read-back (stored partition bytes to reply bytes, plus the client's
// decode) on a 4000-row reply. That a repeat skips compile, queue, lease
// and execute is pinned by TestHotPathServesRepeatQuery and
// TestHotPathTraceAndStages; the end-to-end numbers are the pigmix_hot
// workload in benchmark/.
func BenchmarkServerHot(b *testing.B) {
	small := []string{"alice\t3\t1.5", "bob\t7\t2.5", "alice\t2\t4.0", "carol\t1\t0.5"}
	large := make([]string, 4000)
	for i := range large {
		large[i] = fmt.Sprintf("user%04d\t%d\t%d.25", (i*7919)%len(large), 2+i%97, i)
	}
	b.Run("hot", func(b *testing.B) { benchmarkHotSubmit(b, true, small) })
	b.Run("cold", func(b *testing.B) { benchmarkHotSubmit(b, false, small) })
	b.Run("rows", func(b *testing.B) { benchmarkHotSubmit(b, true, large) })
}
