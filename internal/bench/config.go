package bench

import (
	"fmt"

	"repro"
	"repro/internal/pigmix"
	"repro/internal/synth"
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

// newPigmixSystem builds a ReStore system over a freshly generated PigMix
// instance, with the cluster clock extrapolating to the instance's
// paper-scale size.
func newPigmixSystem(inst pigmix.Instance, opts ...restore.Option) (*restore.System, error) {
	s := restore.New(opts...)
	if err := pigmix.Generate(s.FS(), inst.Config); err != nil {
		return nil, err
	}
	st, err := s.FS().StatFile(pigmix.PathPageViews)
	if err != nil {
		return nil, err
	}
	s.Cluster().ScaleFactor = float64(inst.TargetBytes) / float64(st.Bytes)
	return s, nil
}

// newSynthSystem builds a ReStore system over the §7.5 synthetic table.
func newSynthSystem(cfg Config, opts ...restore.Option) (*restore.System, error) {
	s := restore.New(opts...)
	if err := synth.Generate(s.FS(), cfg.SynthRows, 4, 11); err != nil {
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
