package server

import (
	"context"
	"net/http/httptest"
	"testing"

	restore "repro"
)

// benchmarkHotSubmit drives repeated submissions of one query through a
// daemon; hot=true registers final outputs so every repeat after the first
// is served by the admission-time fast path, hot=false disables both hot
// layers (no plan cache, no whole-query match possible) so repeats pay the
// full prepare+schedule+execute path.
func benchmarkHotSubmit(b *testing.B, hot bool) {
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
	if _, err := c.Upload("data/pages", pagesSchema, 2, []string{
		"alice\t3\t1.5",
		"bob\t7\t2.5",
		"alice\t2\t4.0",
		"carol\t1\t0.5",
	}); err != nil {
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
// re-execute every repeat). That a repeat skips compile, queue, lease and
// execute is pinned by TestHotPathServesRepeatQuery and
// TestHotPathTraceAndStages; the end-to-end numbers are the pigmix_hot
// workload in benchmark/.
func BenchmarkServerHot(b *testing.B) {
	b.Run("hot", func(b *testing.B) { benchmarkHotSubmit(b, true) })
	b.Run("cold", func(b *testing.B) { benchmarkHotSubmit(b, false) })
}
