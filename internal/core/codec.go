package core

import (
	"encoding/json"
	"fmt"

	"cpr/internal/metrics"
	"cpr/internal/pipeline"
)

// Design-level block codec: serializes a whole RunResult so a peer's
// finished run can answer another node's identical submission without
// recomputation (the design level of the cache stack, DESIGN.md §4g).
//
// Router is deliberately not serialized. Every consumer of a cached
// design-level result — the job wire format and Rerun baselines —
// reads only Mode, Metrics, PinOpt, Incremental, and Artifacts; the
// raw router state is per-process scratch. A decoded result therefore
// has Router == nil, exactly like a result restored from the in-memory
// design cache after its run's router was released.

// resultVersion is the design-level block format version. Bump whenever
// RunResult or any serialized component changes shape; mismatches decode
// as errors and degrade to recomputes.
const resultVersion = 1

// resultEnvelope is the wire shape of one design-level block.
type resultEnvelope struct {
	V           int                   `json:"v"`
	Mode        Mode                  `json:"mode"`
	PinOpt      *PinOptReport         `json:"pin_opt,omitempty"`
	Metrics     metrics.Routing       `json:"metrics"`
	Artifacts   *pipeline.ArtifactSet `json:"artifacts,omitempty"`
	Incremental *IncrementalStats     `json:"incremental,omitempty"`
}

// EncodeResult encodes a RunResult as a design-level block. Results of
// eco-fast reruns carry keyless route artifacts; they are encodable,
// but the job manager never gives them a design key, and their keyless
// artifacts stay unservable at the panel/route levels.
func EncodeResult(r *RunResult) ([]byte, error) {
	if r == nil {
		return nil, fmt.Errorf("core: refusing to encode nil result")
	}
	return json.Marshal(resultEnvelope{
		V:           resultVersion,
		Mode:        r.Mode,
		PinOpt:      r.PinOpt,
		Metrics:     r.Metrics,
		Artifacts:   r.Artifacts,
		Incremental: r.Incremental,
	})
}

// DecodeResult decodes a design-level block. The returned result has
// Router == nil (see the package comment above).
func DecodeResult(data []byte) (*RunResult, error) {
	var env resultEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("core: decoding result block: %w", err)
	}
	if env.V != resultVersion {
		return nil, fmt.Errorf("core: result block version %d, want %d", env.V, resultVersion)
	}
	return &RunResult{
		Mode:        env.Mode,
		PinOpt:      env.PinOpt,
		Metrics:     env.Metrics,
		Artifacts:   env.Artifacts,
		Incremental: env.Incremental,
	}, nil
}
