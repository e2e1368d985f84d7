package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	restore "repro"
	"repro/internal/dfs"
	"repro/internal/pigmix"
	"repro/internal/types"
)

// sizes holds every scale knob of the benchmark. fullSizes is what the
// recorded numbers use; tinySizes is the count-only self-test scale.
type sizes struct {
	pigmix pigmix.GenConfig

	// churn_durable: data sets, rows and partitions per data set, warm-up
	// ops per client (they fill the repository to its budget before the
	// clock starts), the repository byte budget, every how many ops of
	// client 0 the in-process GC pass runs, and every how many segments
	// client 1 posts a checkpoint.
	churnSets, churnRows, churnParts int
	churnWarmOps                     int
	churnBudget                      int64
	churnGCEvery, churnCkptSegs      int

	// Ops one client runs between two untimed pauses (GC + host canary).
	reuseSegRounds, hotSegOps, churnSegOps int
	// reusePathCycle is how many rounds of distinct out/ paths pigmix_reuse
	// cycles through: 15 x cycle texts must exceed the plan cache.
	reusePathCycle int
	// setupReps is how many times set-up is repeated (setup_s = median).
	setupReps int
	// recoveries is how many clean reopen cycles a traced run's
	// persist.recovery_s is the median of (an untraced run reopens once,
	// for the durability check alone).
	recoveries int
}

func fullSizes(seed int64) sizes {
	cfg := pigmix.Instance150GB().Config
	cfg.Seed = seed
	return sizes{
		pigmix:         cfg,
		churnSets:      64,
		churnRows:      2000,
		churnParts:     4,
		churnWarmOps:   600,
		churnBudget:    12 << 20,
		churnGCEvery:   250,
		churnCkptSegs:  3,
		reuseSegRounds: 6,
		hotSegOps:      168,
		churnSegOps:    400,
		reusePathCycle: 24,
		setupReps:      3,
		recoveries:     5,
	}
}

func tinySizes(seed int64) sizes {
	return sizes{
		pigmix: pigmix.GenConfig{
			PageViewsRows: 1500, Users: 200, PowerUsers: 20, WideRows: 300,
			Partitions: 4, Seed: seed,
		},
		churnSets:      8,
		churnRows:      200,
		churnParts:     2,
		churnWarmOps:   10,
		churnBudget:    64 << 10,
		churnGCEvery:   10,
		churnCkptSegs:  2,
		reuseSegRounds: 1,
		hotSegOps:      21,
		churnSegOps:    25,
		reusePathCycle: 24,
		setupReps:      1,
		recoveries:     2,
	}
}

// masterFile is one generated input file held outside any System: committed
// partition payloads are immutable, so every fresh System can share them.
type masterFile struct {
	path   string
	schema types.Schema
	parts  []masterPart
}

type masterPart struct {
	data    []byte
	records int64
}

// master is the shared pigmix60k data set: generated once per set-up and
// installed into each fresh System by reference (installInto), which costs
// microseconds where FS.Export + FS.Import of the same 46 MB costs ~0.9 s.
type master struct {
	files []masterFile
	bytes int64
}

func generatePigmix(cfg pigmix.GenConfig) (*master, error) {
	fs := dfs.New()
	if err := pigmix.Generate(fs, cfg); err != nil {
		return nil, err
	}
	return masterFrom(fs)
}

func masterFrom(fs *dfs.FS) (*master, error) {
	m := &master{}
	for _, p := range fs.List("") {
		n, err := fs.Partitions(p)
		if err != nil {
			return nil, err
		}
		schema, err := fs.SchemaOf(p)
		if err != nil {
			return nil, err
		}
		mf := masterFile{path: p, schema: schema}
		for i := 0; i < n; i++ {
			data, err := fs.ReadPartitionRaw(p, i)
			if err != nil {
				return nil, err
			}
			recs, err := countRecords(data)
			if err != nil {
				return nil, fmt.Errorf("%s partition %d: %w", p, i, err)
			}
			mf.parts = append(mf.parts, masterPart{data, recs})
			m.bytes += int64(len(data))
		}
		m.files = append(m.files, mf)
	}
	return m, nil
}

// countRecords walks the uvarint length frames of one partition payload.
func countRecords(data []byte) (int64, error) {
	var n int64
	for len(data) > 0 {
		l, w := binary.Uvarint(data)
		if w <= 0 || uint64(len(data)-w) < l {
			return 0, fmt.Errorf("torn record frame after %d records", n)
		}
		data = data[w+int(l):]
		n++
	}
	return n, nil
}

func (m *master) installInto(fs *dfs.FS) error {
	for _, f := range m.files {
		if _, err := fs.Create(f.path, len(f.parts)); err != nil {
			return err
		}
		if err := fs.SetSchema(f.path, f.schema); err != nil {
			return err
		}
		for i, p := range f.parts {
			if err := fs.CommitPartition(f.path, i, p.data, p.records); err != nil {
				return err
			}
		}
	}
	return nil
}

// oracle is plain Pig: a System with reuse, sub-job materialization and
// registration all off, over the same input bytes. Every distinct script of
// a workload runs on it once, untimed, and the daemon's rows must equal its
// rows as a multiset (both sides are the sorted TSV lines of ReadOutputTSV).
type oracle struct{ sys *restore.System }

func newOracle(m *master) (*oracle, error) {
	sys := restore.New(
		restore.WithReuse(false),
		restore.WithHeuristic(restore.HeuristicOff),
		restore.WithRegistration(false),
		restore.WithPlanCache(0),
	)
	if m != nil {
		if err := m.installInto(sys.FS()); err != nil {
			return nil, err
		}
	}
	return &oracle{sys}, nil
}

// rows executes a single-output script and returns its sorted TSV lines.
func (o *oracle) rows(script, out string) ([]string, error) {
	res, err := o.sys.Execute(script)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	return o.sys.ReadOutputTSV(res, out)
}

// rowsTail renders the end of a correct /v1/query reply for these rows: the
// JSON array of lines, the two closing braces and the encoder's newline. The
// reply's "rows" object is its last member, so a reply is correct exactly
// when it ends with marker + tail — a byte comparison, no decoding.
func rowsTail(lines []string) []byte {
	if lines == nil {
		lines = []string{}
	}
	b, err := json.Marshal(lines)
	if err != nil {
		panic(err) // a []string always marshals
	}
	return append(b, "}}\n"...)
}

// rowsMarker is what precedes the tail: the rows object opening on out.
func rowsMarker(out string) []byte {
	return []byte(`"rows":{"` + out + `":`)
}

// ---- churn_durable data ----

const churnSchema = "k:int, v:int, s:chararray"

// churnKeys is the k domain (groups per query result); churnVMax the v
// domain the 32 filter constants spread over.
const (
	churnKeys      = 100
	churnVMax      = 1000
	churnConstants = 32
)

// churnRow is one generated row; the generator keeps them so the native
// oracle can answer any (data set version, constant) without the program.
type churnRow struct{ k, v int }

// churnDataset is the content of one upload.
type churnDataset struct {
	rows  []churnRow
	lines []string
}

func genChurnDataset(rng *rand.Rand, rows int) *churnDataset {
	d := &churnDataset{rows: make([]churnRow, rows), lines: make([]string, rows)}
	var sb strings.Builder
	for i := range d.rows {
		r := churnRow{k: rng.Intn(churnKeys), v: rng.Intn(churnVMax)}
		d.rows[i] = r
		sb.Reset()
		sb.WriteString(strconv.Itoa(r.k))
		sb.WriteByte('\t')
		sb.WriteString(strconv.Itoa(r.v))
		sb.WriteByte('\t')
		for j := 0; j < 8; j++ {
			sb.WriteByte(byte('a' + rng.Intn(26)))
		}
		d.lines[i] = sb.String()
	}
	return d
}

func churnPath(i int) string    { return fmt.Sprintf("in/d%02d", i) }
func churnOutPath(i int) string { return fmt.Sprintf("out/d%02d", i) }

// churnConstant is the j-th filter constant.
func churnConstant(j int) int { return j * (churnVMax / churnConstants) }

// churnScript is the filter-group-aggregate query over data set i.
func churnScript(i, constant int) string {
	return fmt.Sprintf(`A = load '%s' as (k:int, v:int, s:chararray);
B = filter A by v > %d;
C = group B by k;
D = foreach C generate group, COUNT(B), SUM(B.v);
store D into '%s';`, churnPath(i), constant, churnOutPath(i))
}

// expected answers churnScript natively: per k with any row passing the
// filter, "k<TAB>count<TAB>sum", sorted as strings like ReadOutputTSV.
func (d *churnDataset) expected(constant int) []string {
	var cnt, sum [churnKeys]int
	for _, r := range d.rows {
		if r.v > constant {
			cnt[r.k]++
			sum[r.k] += r.v
		}
	}
	lines := make([]string, 0, churnKeys)
	for k := range cnt {
		if cnt[k] > 0 {
			lines = append(lines, strconv.Itoa(k)+"\t"+strconv.Itoa(cnt[k])+"\t"+strconv.Itoa(sum[k]))
		}
	}
	sort.Strings(lines)
	return lines
}

// linesHash is an order-sensitive digest of sorted TSV lines, used to compare
// recovered DFS files with what was acknowledged.
func linesHash(lines []string) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, l := range lines {
		for i := 0; i < len(l); i++ {
			h = (h ^ uint64(l[i])) * prime
		}
		h = (h ^ '\n') * prime
	}
	return h
}

// sortedLinesHash digests lines in sorted order without reordering the input.
func sortedLinesHash(lines []string) uint64 {
	sorted := append([]string(nil), lines...)
	sort.Strings(sorted)
	return linesHash(sorted)
}

// fileHash reads a DFS file back as sorted TSV lines and digests them.
func fileHash(fs *dfs.FS, path string) (uint64, error) {
	tuples, err := fs.ReadAll(path)
	if err != nil {
		return 0, err
	}
	lines := make([]string, len(tuples))
	for i, t := range tuples {
		lines[i] = types.FormatTSV(t)
	}
	return sortedLinesHash(lines), nil
}
