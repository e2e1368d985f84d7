package bench

import (
	"fmt"
	"sync"

	"repro"
	"repro/internal/dfs"
	"repro/internal/pigmix"
	"repro/internal/synth"
	"repro/internal/types"
)

// Config sizes the experiments. The defaults reproduce the paper's setup at
// laptop scale; tests shrink them further.
type Config struct {
	// Small and Large are the two PigMix instances (the paper's 15 GB and
	// 150 GB).
	Small pigmix.Instance
	Large pigmix.Instance
	// SynthRows sizes the §7.5 synthetic table; SynthTargetBytes is the
	// paper-scale size it represents (40 GB).
	SynthRows        int
	SynthTargetBytes int64
}

// DefaultConfig returns the full-size (laptop-scale) configuration.
func DefaultConfig() Config {
	return Config{
		Small:            pigmix.Instance15GB(),
		Large:            pigmix.Instance150GB(),
		SynthRows:        40_000,
		SynthTargetBytes: 40 << 30,
	}
}

// TinyConfig returns a fast configuration for tests.
func TinyConfig() Config {
	small := pigmix.Instance15GB()
	small.Config.PageViewsRows = 800
	small.Config.Users = 80
	small.Config.PowerUsers = 12
	small.Config.WideRows = 160
	large := pigmix.Instance150GB()
	large.Config.PageViewsRows = 8_000
	large.Config.Users = 800
	large.Config.PowerUsers = 120
	large.Config.WideRows = 1_600
	return Config{
		Small:            small,
		Large:            large,
		SynthRows:        4_000,
		SynthTargetBytes: 40 << 30,
	}
}

// dataset is a generated input: every file's schema and committed
// partitions. Committed partition bytes are never written again, so one
// dataset is installed into any number of systems by reference.
type dataset []datasetFile

type datasetFile struct {
	path    string
	schema  types.Schema
	parts   [][]byte
	records []int64
}

// generated memoises generate per key: each input is generated once per
// process, however many systems the experiments build over it.
func generated[K comparable](m *sync.Map, key K, generate func(*dfs.FS) error) (dataset, error) {
	once, _ := m.LoadOrStore(key, sync.OnceValues(func() (dataset, error) {
		fs := dfs.New()
		if err := generate(fs); err != nil {
			return nil, err
		}
		return datasetOf(fs)
	}))
	return once.(func() (dataset, error))()
}

// pigmixSets and synthSets hold generated's memos, per pigmix.GenConfig
// and per synthetic row count.
var pigmixSets, synthSets sync.Map

// datasetOf reads every file of fs back as a dataset.
func datasetOf(fs *dfs.FS) (dataset, error) {
	var d dataset
	for _, path := range fs.List("") {
		st, err := fs.StatFile(path)
		if err != nil {
			return nil, err
		}
		schema, err := fs.SchemaOf(path)
		if err != nil {
			return nil, err
		}
		f := datasetFile{path: path, schema: schema}
		for i := 0; i < st.Partitions; i++ {
			data, err := fs.ReadPartitionRaw(path, i)
			if err != nil {
				return nil, err
			}
			var n int64
			for rest := data; len(rest) > 0; n++ {
				if _, rest, err = types.NextRecord(rest); err != nil {
					return nil, fmt.Errorf("bench: %s partition %d: %w", path, i, err)
				}
			}
			f.parts = append(f.parts, data)
			f.records = append(f.records, n)
		}
		d = append(d, f)
	}
	return d, nil
}

// installInto creates every file of d in fs, as the generator did, with
// the dataset's partition bytes.
func (d dataset) installInto(fs *dfs.FS) error {
	for _, f := range d {
		if _, err := fs.Create(f.path, len(f.parts)); err != nil {
			return err
		}
		for i, data := range f.parts {
			if err := fs.CommitPartition(f.path, i, data, f.records[i]); err != nil {
				return err
			}
		}
		if err := fs.SetSchema(f.path, f.schema); err != nil {
			return err
		}
	}
	return nil
}

// newPigmixSystem builds a ReStore system over a PigMix instance,
// generated once per GenConfig, with the cluster clock extrapolating to
// the instance's paper-scale size.
func newPigmixSystem(inst pigmix.Instance, opts ...restore.Option) (*restore.System, error) {
	d, err := generated(&pigmixSets, inst.Config, func(fs *dfs.FS) error { return pigmix.Generate(fs, inst.Config) })
	if err != nil {
		return nil, err
	}
	s := restore.New(opts...)
	if err := d.installInto(s.FS()); err != nil {
		return nil, err
	}
	st, err := s.FS().StatFile(pigmix.PathPageViews)
	if err != nil {
		return nil, err
	}
	s.Cluster().ScaleFactor = float64(inst.TargetBytes) / float64(st.Bytes)
	return s, nil
}

// newSynthSystem builds a ReStore system over the §7.5 synthetic table,
// generated once per row count.
func newSynthSystem(cfg Config, opts ...restore.Option) (*restore.System, error) {
	d, err := generated(&synthSets, cfg.SynthRows, func(fs *dfs.FS) error { return synth.Generate(fs, cfg.SynthRows, 4, 11) })
	if err != nil {
		return nil, err
	}
	s := restore.New(opts...)
	if err := d.installInto(s.FS()); err != nil {
		return nil, err
	}
	st, err := s.FS().StatFile(synth.Path)
	if err != nil {
		return nil, err
	}
	s.Cluster().ScaleFactor = float64(cfg.SynthTargetBytes) / float64(st.Bytes)
	return s, nil
}

// baselineOpts is the "No Data Reuse" configuration of §7: plain Pig.
func baselineOpts() []restore.Option {
	return []restore.Option{
		restore.WithReuse(false),
		restore.WithHeuristic(restore.HeuristicOff),
		restore.WithRegistration(false),
	}
}

// runQuery executes a named PigMix query, returning the result.
func runQuery(s *restore.System, name, out string) (*restore.Result, error) {
	src, err := pigmix.Query(name, out)
	if err != nil {
		return nil, err
	}
	res, err := s.Execute(src)
	if err != nil {
		return nil, fmt.Errorf("bench: query %s: %w", name, err)
	}
	return res, nil
}
