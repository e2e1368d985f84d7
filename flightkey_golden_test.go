package restore

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/pigmix"
)

// The FlightKey golden pins the operator signatures end to end: a
// FlightKey hashes every compiled job's canonical plan, so any change to
// how an expression parses or canonicalizes moves it, and with it every
// repository match, plan-cache key and single-flight key.
// testdata/flightkeys_golden.txt was generated before the expression
// operator table existed and must hold byte for byte; it is not
// regenerated.
const flightKeyGoldenPath = "testdata/flightkeys_golden.txt"

// flightKeyGoldenScripts lists every PigMix query and variant, then
// churn-shaped filter-group-aggregate scripts over several data sets and
// filter constants.
func flightKeyGoldenScripts(t *testing.T) (names, scripts []string) {
	seen := map[string]bool{}
	for _, name := range append(pigmix.Names(), pigmix.VariantNames()...) {
		if seen[name] {
			continue
		}
		seen[name] = true
		q, err := pigmix.Query(name, "out/"+name)
		if err != nil {
			t.Fatal(err)
		}
		names, scripts = append(names, name), append(scripts, q)
	}
	for i := 0; i < 4; i++ {
		for _, c := range []int{0, 125, 500, 875} {
			names = append(names, fmt.Sprintf("churn-d%02d-v%d", i, c))
			scripts = append(scripts, fmt.Sprintf(`A = load 'in/d%02d' as (k:int, v:int, s:chararray);
B = filter A by v > %d;
C = group B by k;
D = foreach C generate group, COUNT(B), SUM(B.v);
store D into 'out/d%02d';`, i, c, i))
		}
	}
	return names, scripts
}

func TestFlightKeyGolden(t *testing.T) {
	want, err := os.ReadFile(flightKeyGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	s := New()
	names, scripts := flightKeyGoldenScripts(t)
	var sb strings.Builder
	for i, src := range scripts {
		p, err := s.Prepare(src)
		if err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		fmt.Fprintf(&sb, "%s\t%s\n", names[i], p.FlightKey())
	}
	if got := sb.String(); got != string(want) {
		t.Errorf("FlightKeys moved:\n got:\n%s\nwant:\n%s", got, want)
	}
}
