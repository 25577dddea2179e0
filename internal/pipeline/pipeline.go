// Package pipeline decomposes concurrent pin access optimization into
// explicit, per-panel stages with typed artifacts:
//
//	IntervalSet    §3.1  track-based pin access interval generation
//	ConflictModel  §3.2  conflict sweep + assignment model build
//	Assignment     §3.3  weighted interval assignment (LR or exact ILP)
//
// Each artifact has a canonical text encoding (Encode*) and a content
// hash (Hash*), and each panel's complete product — a PanelArtifact — is
// content-addressed by a per-panel key derived from *every* input that
// can affect the panel's result: the panel's pins, the merged M2 blockage
// spans on its tracks, the bounding boxes of its nets (which may extend
// into other panels), the grid extents and technology, and the solver
// fingerprint. Two panels with equal keys are guaranteed to produce
// byte-identical artifacts, which is what makes incremental (ECO-style)
// re-optimization safe: core.Rerun and the cprd panel cache splice cached
// artifacts for key-identical panels and recompute only the rest, with
// the hard invariant that the spliced run is byte-identical to a cold
// full run of the edited design.
package pipeline

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"sync"

	"cpr/internal/assign"
	"cpr/internal/design"
	"cpr/internal/pinaccess"
	"cpr/internal/tech"
)

// IntervalSet is the stage-1 artifact: the deduplicated candidate pin
// access intervals of one panel (paper §3.1).
type IntervalSet struct {
	Set *pinaccess.Set
}

// ConflictModel is the stage-2 artifact: the assignment model with its
// maximal conflict sets and profit coefficients (paper §3.2/§3.3).
type ConflictModel struct {
	Model *assign.Model
}

// Assignment is the stage-3 artifact: a legal interval selection for the
// panel plus the solver's convergence flag.
type Assignment struct {
	Solution *assign.Solution
	// Converged reports whether the solver reached a conflict-free
	// selection on its own (LR before refinement, or a proven ILP
	// optimum).
	Converged bool
}

// PanelArtifact is the complete cached product of one panel: everything
// a later run needs to splice the panel into a result without re-solving
// it. The intermediate ConflictModel is deliberately not retained — only
// its summary counts — because router seeding and reporting need only
// the interval set and the solution.
type PanelArtifact struct {
	// Panel is the panel index the artifact was produced for.
	Panel int
	// Key is the content address of the panel's inputs plus the solver
	// fingerprint (see PanelKeyFor); empty when the run was uncacheable.
	Key string
	// Intervals is the stage-1 artifact.
	Intervals *IntervalSet
	// Assignment is the stage-3 artifact.
	Assignment *Assignment
	// NumConflicts is the conflict-set count of the discarded stage-2
	// model, retained for reporting.
	NumConflicts int
}

// ArtifactSet is the artifact collection of one full run, retained on
// core.RunResult so a later Rerun can seed its caches with it. The
// artifacts' keys carry the solver and router fingerprints they were
// produced under.
type ArtifactSet struct {
	// Panels holds one artifact per non-empty panel, ascending by panel
	// index.
	Panels []*PanelArtifact
	// Routes holds one route artifact per region, ascending by region
	// index.
	Routes []*RouteArtifact
}

// EncodeIntervalSet writes the canonical text encoding of a stage-1
// artifact: pins ascending, then intervals in ID order with net, track,
// span, covered pins, and min-interval marking.
func EncodeIntervalSet(w io.Writer, s *IntervalSet) error {
	if _, err := fmt.Fprintf(w, "intervalset pins %v\n", s.Set.PinIDs); err != nil {
		return err
	}
	for i := range s.Set.Intervals {
		iv := &s.Set.Intervals[i]
		if _, err := fmt.Fprintf(w, "iv %d net %d track %d span %d %d pins %v min %d\n",
			iv.ID, iv.NetID, iv.Track, iv.Span.Lo, iv.Span.Hi, iv.PinIDs, iv.MinForPin); err != nil {
			return err
		}
	}
	return nil
}

// EncodeConflictModel writes the canonical text encoding of a stage-2
// artifact: conflict sets in their deterministic sweep order, then the
// profit vector.
func EncodeConflictModel(w io.Writer, m *ConflictModel) error {
	for _, cs := range m.Model.Conflicts.Sets {
		if _, err := fmt.Fprintf(w, "conflict track %d common %d %d ids %v\n",
			cs.Track, cs.Common.Lo, cs.Common.Hi, cs.IDs); err != nil {
			return err
		}
	}
	for i, p := range m.Model.Profits {
		if _, err := fmt.Fprintf(w, "profit %d %s %s\n", i,
			formatFloat(m.Model.BaseProfits[i]), formatFloat(p)); err != nil {
			return err
		}
	}
	return nil
}

// EncodeAssignment writes the canonical text encoding of a stage-3
// artifact: selected interval IDs ascending, the per-pin assignment in
// ascending pin order, and the quality metrics.
func EncodeAssignment(w io.Writer, a *Assignment) error {
	var selected []int
	for i, sel := range a.Solution.Selected {
		if sel {
			selected = append(selected, i)
		}
	}
	if _, err := fmt.Fprintf(w, "selected %v\n", selected); err != nil {
		return err
	}
	pids := make([]int, 0, len(a.Solution.ByPin))
	for pid := range a.Solution.ByPin {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	for _, pid := range pids {
		if _, err := fmt.Fprintf(w, "assign %d %d\n", pid, a.Solution.ByPin[pid]); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "objective %s violations %d converged %t\n",
		formatFloat(a.Solution.Objective), a.Solution.Violations, a.Converged)
	return err
}

// HashIntervalSet returns the hex SHA-256 of the canonical encoding.
func HashIntervalSet(s *IntervalSet) string {
	return hashOf(func(w io.Writer) error { return EncodeIntervalSet(w, s) })
}

// HashConflictModel returns the hex SHA-256 of the canonical encoding.
func HashConflictModel(m *ConflictModel) string {
	return hashOf(func(w io.Writer) error { return EncodeConflictModel(w, m) })
}

// HashAssignment returns the hex SHA-256 of the canonical encoding.
func HashAssignment(a *Assignment) string {
	return hashOf(func(w io.Writer) error { return EncodeAssignment(w, a) })
}

func hashOf(encode func(io.Writer) error) string {
	h := sha256.New()
	if err := encode(h); err != nil {
		// The encoders only fail on writer errors, and sha256 never
		// errors; keep the signature ergonomic.
		panic(fmt.Sprintf("pipeline: hash encoding failed: %v", err))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// formatFloat renders a float both compactly and losslessly, so encoded
// artifacts are byte-stable across runs without rounding collisions.
func formatFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// WritePanelInputs writes the canonical encoding of every design-side
// input that can affect panel p's artifacts. This is the per-panel half
// of the cache-key contract (DESIGN.md §4d):
//
//   - the grid extents and the full technology record (width clips the
//     free spans; TracksPerPanel induces the panel decomposition);
//   - the panel index and its global track range;
//   - every pin in the panel, ascending by ID, with net and shape (pin
//     IDs and net IDs are part of the artifact, so ID shifts from
//     insertions or deletions must dirty the panel);
//   - the bounding box of every net with a pin in the panel (interval
//     generation windows candidates by the net bbox, which other panels'
//     pins can move);
//   - the merged M2 blockage spans on each of the panel's tracks (the
//     free-span clipping input of §3.1).
//
// Anything not encoded here — other panels' pins that share no net with
// this panel, blockages outside the panel's tracks, router
// configuration — provably cannot change the panel's artifacts.
//
// A non-zero rule-engine selection is encoded as an extra record; the
// zero value emits nothing, keeping every pre-engine panel hash valid.
//
//keypurity:encoder stage
func WritePanelInputs(w io.Writer, d *design.Design, idx *design.TrackIndex, panel int) error {
	pins := idx.PinsInPanel(panel)
	// The records are appended to one pooled buffer, roughly sized for
	// the pin and net-bbox lines, and written once; a Writer retains none
	// of it (io.Writer's contract).
	buf := inputsPool.Get().(*inputsBuf)
	b := slices.Grow(buf.b[:0], 256+80*len(pins))
	t := d.Tech
	b = append(b, "panel-inputs v1\ngrid"...)
	b = appendInts(b, d.Width, d.Height)
	b = append(b, "\ntech"...)
	b = appendInts(b, t.TracksPerPanel, t.BaseCost, t.ViaCost, t.ForbiddenViaCost,
		t.LineEndExtension, t.MinLineLen, t.LineEndSpacing)
	b = append(b, '\n')
	if t.Patterning != (tech.Patterning{}) {
		b = append(b, "rule-engine "...)
		b = append(b, t.Patterning.Spec()...)
		b = append(b, '\n')
	}
	lo, hi := t.PanelTracks(panel)
	if hi >= d.Height {
		hi = d.Height - 1
	}
	b = append(b, "panel"...)
	b = appendInts(b, panel)
	b = append(b, " tracks"...)
	b = appendInts(b, lo, hi)
	b = append(b, '\n')

	nets := buf.nets[:0]
	for _, pid := range pins {
		p := &d.Pins[pid]
		nets = append(nets, p.NetID)
		b = append(b, "pin"...)
		b = appendInts(b, pid)
		b = append(b, " net"...)
		b = appendInts(b, p.NetID)
		b = append(b, " shape"...)
		b = appendInts(b, p.Shape.X0, p.Shape.Y0, p.Shape.X1, p.Shape.Y1)
		b = append(b, '\n')
	}
	slices.Sort(nets)
	for _, id := range slices.Compact(nets) {
		box := idx.NetBBox(id)
		b = append(b, "netbbox"...)
		b = appendInts(b, id, box.X0, box.Y0, box.X1, box.Y1)
		b = append(b, '\n')
	}
	for y := lo; y <= hi; y++ {
		for _, span := range idx.BlockedSpans(y) {
			b = append(b, "blocked"...)
			b = appendInts(b, y, span.Lo, span.Hi)
			b = append(b, '\n')
		}
	}
	_, err := w.Write(b)
	buf.b, buf.nets = b, nets
	inputsPool.Put(buf)
	return err
}

// inputsBuf is WritePanelInputs' encoding buffer and net list.
type inputsBuf struct {
	b    []byte
	nets []int
}

// inputsPool recycles WritePanelInputs' buffers across calls.
var inputsPool = sync.Pool{New: func() any { return new(inputsBuf) }}

// appendInts appends each value in decimal after a space, as the format
// verb " %d" would.
func appendInts(b []byte, xs ...int) []byte {
	for _, x := range xs {
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(x), 10)
	}
	return b
}

// PanelHash returns the hex SHA-256 of the panel's canonical input
// encoding. The track index must be built from the same design.
func PanelHash(d *design.Design, idx *design.TrackIndex, panel int) string {
	return hashOf(func(w io.Writer) error { return WritePanelInputs(w, d, idx, panel) })
}
