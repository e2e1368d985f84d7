package bench

import "fmt"

// Experiment is one reproducible table or figure.
type Experiment struct {
	ID   string
	Desc string
	Run  func(Config) (*Table, error)
}

// Experiments lists every experiment in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{"fig9", "Figure 9: whole-job reuse (150GB)", Fig9WholeJobReuse},
		{"fig10", "Figure 10: sub-job reuse, Aggressive (150GB)", Fig10SubJobReuse},
		{"fig11", "Figure 11: injection overhead (15GB vs 150GB)", Fig11Overhead},
		{"fig12", "Figure 12: sub-job reuse speedup (15GB vs 150GB)", Fig12Speedup},
		{"fig13", "Figure 13: reuse time by heuristic (150GB)", Fig13HeuristicsReuse},
		{"fig14", "Figure 14: generation time by heuristic (150GB)", Fig14HeuristicsGeneration},
		{"table1", "Table 1: stored bytes by heuristic (150GB)", Table1StoredBytes},
		{"fig15", "Figure 15: whole jobs vs sub-jobs (150GB)", Fig15ReuseTypes},
		{"table2", "Table 2: synthetic field selectivities", Table2Synthetic},
		{"fig16", "Figure 16: QP projection sweep", Fig16ProjectSweep},
		{"fig17", "Figure 17: QF filter sweep", Fig17FilterSweep},
		{"ablation-order", "Ablation: repository ordering rules", AblationRepoOrdering},
		{"ablation-evict", "Ablation: eviction policies", AblationEviction},
	}
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q", id)
}
