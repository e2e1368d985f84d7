package mapred_test

import (
	"testing"

	"repro/internal/mapred"
)

// FuzzDecodeJob feeds arbitrary bytes to both wire decoders, the fleet's
// untrusted decode surface. Decoding must never panic, and whatever decodes
// must re-encode to bytes that decode to the same plan fingerprints: a
// worker that accepts an envelope runs exactly the plan it describes. The
// checked-in corpus holds one encoded job per operator and blocking kind,
// their workflow envelopes, truncations, a bumped WireVersion and a
// tampered fingerprint.
func FuzzDecodeJob(f *testing.F) {
	f.Add([]byte(`{"v":1,"id":"j","plan":null,"fp":0}`))
	f.Add([]byte(`{"v":1,"jobs":[]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if job, err := mapred.DecodeJob(data); err == nil {
			env, err := mapred.EncodeJob(job)
			if err != nil {
				t.Fatalf("decoded job does not re-encode: %v", err)
			}
			again, err := mapred.DecodeJob(env)
			if err != nil {
				t.Fatalf("re-encoded job does not decode: %v\n%s", err, env)
			}
			sameFingerprints(t, []*mapred.Job{job}, []*mapred.Job{again})
		}
		if w, err := mapred.DecodeWorkflow(data); err == nil {
			env, err := mapred.EncodeWorkflow(w)
			if err != nil {
				t.Fatalf("decoded workflow does not re-encode: %v", err)
			}
			again, err := mapred.DecodeWorkflow(env)
			if err != nil {
				t.Fatalf("re-encoded workflow does not decode: %v\n%s", err, env)
			}
			sameFingerprints(t, w.Jobs, again.Jobs)
		}
	})
}

// sameFingerprints fails unless both job lists have the same IDs and plan
// fingerprints, pairwise.
func sameFingerprints(t *testing.T, a, b []*mapred.Job) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("round trip changed the job count: %d -> %d", len(a), len(b))
	}
	for i := range a {
		fa, fb := mapred.PlanFingerprint(a[i].Plan), mapred.PlanFingerprint(b[i].Plan)
		if a[i].ID != b[i].ID || fa != fb {
			t.Fatalf("job %d round trip: %q %016x -> %q %016x", i, a[i].ID, uint64(fa), b[i].ID, uint64(fb))
		}
	}
}
