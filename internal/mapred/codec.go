package mapred

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"

	"repro/internal/physical"
	"repro/internal/types"
)

// WireVersion is the version tag of the job wire envelope. A decoder that
// sees any other version refuses the payload, so protocol evolution is an
// explicit negotiation rather than silent misinterpretation.
const WireVersion = 1

// jobEnvelope is the versioned wire form of one compiled job: the operator
// graph (the physical plan serializes losslessly through its JSON form) plus
// the plan-wide fingerprint the decoder re-verifies. The map/reduce split is
// deliberately absent — NewJob recomputes it, so the two sides can never
// disagree about which operators run in which phase.
type jobEnvelope struct {
	Version     int                  `json:"v"`
	ID          string               `json:"id"`
	Plan        *physical.Plan       `json:"plan"`
	Fingerprint physical.Fingerprint `json:"fp"`
}

// workflowEnvelope is the versioned wire form of a workflow: its jobs'
// envelopes in order.
type workflowEnvelope struct {
	Version int               `json:"v"`
	Jobs    []json.RawMessage `json:"jobs"`
}

// PlanFingerprint folds every operator's Merkle fingerprint — and its ID, so
// renumbering or reshaping is detected even when signatures collide — into
// one plan-wide value. It keys the wire codec: DecodeJob re-derives it from
// the decoded plan and rejects any mismatch with the encoder's value.
func PlanFingerprint(p *physical.Plan) physical.Fingerprint {
	ix := physical.IndexPlan(p)
	h := fnv.New64a()
	var buf [8]byte
	for _, o := range p.Ops() {
		binary.LittleEndian.PutUint64(buf[:], uint64(o.ID))
		h.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:], uint64(ix.Fingerprint(o.ID)))
		h.Write(buf[:])
	}
	return physical.Fingerprint(h.Sum64())
}

// EncodeJob serializes the job into the versioned wire envelope.
func EncodeJob(job *Job) ([]byte, error) {
	env := jobEnvelope{
		Version:     WireVersion,
		ID:          job.ID,
		Plan:        job.Plan,
		Fingerprint: PlanFingerprint(job.Plan),
	}
	data, err := json.Marshal(env)
	if err != nil {
		return nil, fmt.Errorf("mapred: encode job %s: %w", job.ID, err)
	}
	return data, nil
}

// DecodeJob reconstructs a job from its wire envelope: the plan is
// revalidated, the map/reduce split recomputed, and the plan fingerprint
// re-derived and checked against the encoder's, so a corrupted or mismatched
// payload fails loudly instead of executing a different plan.
func DecodeJob(data []byte) (*Job, error) {
	var env jobEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("mapred: decode job: %w", err)
	}
	if env.Version != WireVersion {
		return nil, fmt.Errorf("mapred: decode job %q: wire version %d, want %d", env.ID, env.Version, WireVersion)
	}
	if env.Plan == nil {
		return nil, fmt.Errorf("mapred: decode job %q: envelope has no plan", env.ID)
	}
	job, err := NewJob(env.ID, env.Plan)
	if err != nil {
		return nil, err
	}
	if got := PlanFingerprint(job.Plan); got != env.Fingerprint {
		return nil, fmt.Errorf("mapred: decode job %q: plan fingerprint %016x, envelope says %016x", env.ID, uint64(got), uint64(env.Fingerprint))
	}
	return job, nil
}

// EncodeWorkflow serializes every job of the workflow, in order, into one
// versioned envelope.
func EncodeWorkflow(w *Workflow) ([]byte, error) {
	env := workflowEnvelope{Version: WireVersion}
	for _, j := range w.Jobs {
		data, err := EncodeJob(j)
		if err != nil {
			return nil, err
		}
		env.Jobs = append(env.Jobs, data)
	}
	return json.Marshal(env)
}

// DecodeWorkflow reconstructs a workflow from its wire envelope, decoding
// (and fingerprint-checking) every job.
func DecodeWorkflow(data []byte) (*Workflow, error) {
	var env workflowEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("mapred: decode workflow: %w", err)
	}
	if env.Version != WireVersion {
		return nil, fmt.Errorf("mapred: decode workflow: wire version %d, want %d", env.Version, WireVersion)
	}
	w := &Workflow{}
	for i, raw := range env.Jobs {
		job, err := DecodeJob(raw)
		if err != nil {
			return nil, fmt.Errorf("mapred: decode workflow job %d: %w", i, err)
		}
		w.Jobs = append(w.Jobs, job)
	}
	return w, nil
}

// encodeRun appends the run's records in the binary shuffle-run wire format:
// per record, a uvarint-framed EncodeTuple key, uvarint tag, uvarint seq,
// and a uvarint-framed EncodeTuple value.
func encodeRun(dst []byte, recs []shuffleRec) []byte {
	var scratch []byte
	for _, rec := range recs {
		scratch = types.EncodeTuple(scratch[:0], rec.key)
		dst = binary.AppendUvarint(dst, uint64(len(scratch)))
		dst = append(dst, scratch...)
		dst = binary.AppendUvarint(dst, uint64(rec.tag))
		dst = binary.AppendUvarint(dst, uint64(rec.seq))
		scratch = types.EncodeTuple(scratch[:0], rec.val)
		dst = binary.AppendUvarint(dst, uint64(len(scratch)))
		dst = append(dst, scratch...)
	}
	return dst
}

// decodeRun parses an encoded shuffle run into dst, returning an error on
// any truncation or framing damage (how a torn shuffle pull surfaces). Keys
// and values alias data (types.DecodeRecord): a fetched run is a fresh
// response body or a worker's retained encoding, never written again.
func decodeRun(data []byte, dst []shuffleRec) ([]shuffleRec, error) {
	readFramed := func() (types.Tuple, error) {
		rec, rest, err := types.NextRecord(data)
		if err != nil {
			return nil, err
		}
		data = rest
		return types.DecodeRecord(rec)
	}
	readUvarint := func() (uint64, error) {
		v, n := binary.Uvarint(data)
		if n <= 0 {
			return 0, fmt.Errorf("truncated varint")
		}
		data = data[n:]
		return v, nil
	}
	for len(data) > 0 {
		key, err := readFramed()
		if err != nil {
			return nil, fmt.Errorf("mapred: decode run record %d key: %w", len(dst), err)
		}
		tag, err := readUvarint()
		if err != nil {
			return nil, fmt.Errorf("mapred: decode run record %d tag: %w", len(dst), err)
		}
		seq, err := readUvarint()
		if err != nil {
			return nil, fmt.Errorf("mapred: decode run record %d seq: %w", len(dst), err)
		}
		val, err := readFramed()
		if err != nil {
			return nil, fmt.Errorf("mapred: decode run record %d value: %w", len(dst), err)
		}
		dst = append(dst, shuffleRec{key: key, tag: int(tag), seq: int64(seq), val: val})
	}
	return dst, nil
}
