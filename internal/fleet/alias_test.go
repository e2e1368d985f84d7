package fleet

import (
	"bytes"
	"testing"

	restore "repro"
	"repro/internal/pigmix"
)

// partitionCopy is one committed partition as a reader got it, and a copy of
// its bytes taken at the same time.
type partitionCopy struct {
	path string
	part int
	data []byte
	copy []byte
}

// copyPartitions takes every partition of every file in the system's DFS.
func copyPartitions(t *testing.T, s *restore.System) []partitionCopy {
	t.Helper()
	var out []partitionCopy
	for _, path := range s.FS().List("") {
		n, err := s.FS().Partitions(path)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			data, err := s.FS().ReadPartitionRaw(path, i)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, partitionCopy{path, i, data, bytes.Clone(data)})
		}
	}
	return out
}

// checkPartitions fails if any partition's bytes differ from the copy.
func checkPartitions(t *testing.T, parts []partitionCopy) {
	t.Helper()
	for _, p := range parts {
		if !bytes.Equal(p.data, p.copy) {
			t.Errorf("%s partition %d changed under a reader", p.path, p.part)
		}
	}
}

// TestAliasedDecodeLeavesPartitionsIntact: map tasks decode committed
// partitions in place, their strings aliasing the bytes. A PigMix L3
// workflow, then L3a reusing L3's stored sub-job outputs, must leave every
// partition they read byte-identical to a copy taken before — in process,
// where tasks alias the DFS's own slices, and through a 2-worker fleet.
func TestAliasedDecodeLeavesPartitionsIntact(t *testing.T) {
	for _, backend := range []string{"in-process", "fleet"} {
		t.Run(backend, func(t *testing.T) {
			s := restore.New()
			if backend == "fleet" {
				s, _ = newFleetSystem(t, startFleet(t, 2, WorkerConfig{}, nil).addrs)
			}
			cfg := pigmix.GenConfig{PageViewsRows: 400, Users: 60, PowerUsers: 10, WideRows: 80, Partitions: 2, Seed: 1}
			if err := pigmix.Generate(s.FS(), cfg); err != nil {
				t.Fatal(err)
			}
			for _, q := range []string{"L3", "L3a"} {
				parts := copyPartitions(t, s)
				src, err := pigmix.Query(q, "out/"+q)
				if err != nil {
					t.Fatal(err)
				}
				res, err := s.Execute(src)
				if err != nil {
					t.Fatalf("%s: %v", q, err)
				}
				checkPartitions(t, parts)
				if q == "L3a" && len(res.Rewrites) == 0 {
					t.Error("L3a reused nothing: no stored output was read")
				}
			}
		})
	}
}
