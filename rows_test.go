package restore

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro/internal/types"
)

// TestReadOutputTSVMatchesDecodedRows pins the read-back kernel against the
// decoding rule it replaced: ReadOutputTSV's lines are the output's tuples
// decoded, rendered by FormatTSV and sorted by sort.Strings, across several
// partitions; the read charges the DFS counters exactly what decoding the
// whole file charges; ReadOutputLines hands over the same lines; and an
// empty output reads as an empty, non-nil slice.
func TestReadOutputTSVMatchesDecodedRows(t *testing.T) {
	s := New()
	var lines []string
	for i := 0; i < 300; i++ {
		lines = append(lines, fmt.Sprintf("u%03d\t%d\t%d.5", (i*37)%300, i%11, i))
	}
	if err := s.LoadTSV("data/pages", "user, views:int, revenue:double", lines, 3); err != nil {
		t.Fatal(err)
	}
	res, err := s.Execute(`A = load 'data/pages' as (user, views:int, revenue:double);
B = group A by views;
C = foreach B generate group, A, COUNT(A);
store C into 'out/grouped';
D = filter A by views > 100;
store D into 'out/empty';`)
	if err != nil {
		t.Fatal(err)
	}
	for out, nonEmpty := range map[string]bool{"out/grouped": true, "out/empty": false} {
		_, read0 := s.FS().Counters()
		tuples, err := s.ReadOutput(res, out)
		if err != nil {
			t.Fatal(err)
		}
		_, read1 := s.FS().Counters()
		want := make([]string, len(tuples))
		for i, tu := range tuples {
			want[i] = types.FormatTSV(tu)
		}
		sort.Strings(want)

		got, err := s.ReadOutputTSV(res, out)
		if err != nil {
			t.Fatal(err)
		}
		_, read2 := s.FS().Counters()
		if got == nil || !slices.Equal(got, want) || (len(got) > 0) != nonEmpty {
			t.Fatalf("%s: ReadOutputTSV = %q, want %q", out, got, want)
		}
		if read2-read1 != read1-read0 {
			t.Errorf("%s: read-back charged %d bytes, decoding charged %d", out, read2-read1, read1-read0)
		}
		err = s.ReadOutputLines(res, out, func(lines [][]byte) error {
			if len(lines) != len(want) {
				return fmt.Errorf("%d lines, want %d", len(lines), len(want))
			}
			for i, l := range lines {
				if string(l) != want[i] {
					return fmt.Errorf("line %d = %q, want %q", i, l, want[i])
				}
			}
			return nil
		})
		if err != nil {
			t.Errorf("%s: ReadOutputLines: %v", out, err)
		}
	}
	if _, err := s.ReadOutputTSV(res, "out/missing"); err == nil {
		t.Error("reading an output the query does not have succeeded")
	}
}
