package server

import (
	"context"
	"net/http/httptest"
	"testing"

	restore "repro"
	"repro/internal/obs"
)

// benchmarkSubmit drives repeated submissions of the same (repository-warm)
// query through a daemon with the given registry, pricing the full HTTP
// request path per iteration.
func benchmarkSubmit(b *testing.B, reg *obs.Registry) {
	srv, err := New(Config{System: restore.New(), Obs: reg})
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
	if _, err := c.Submit(projectQuery, false); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Submit(projectQuery, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServerSubmit compares the per-request cost of the serving path
// with telemetry on (histograms, trace, slow ring, rate window) vs
// obs.Disabled. The end-to-end figure for the same split is
// bench.trace_overhead_ratio in benchmark/ (traced vs untraced throughput of
// a whole workload).
func BenchmarkServerSubmit(b *testing.B) {
	b.Run("instrumented", func(b *testing.B) { benchmarkSubmit(b, nil) })
	b.Run("disabled", func(b *testing.B) { benchmarkSubmit(b, obs.Disabled) })
}
