package pipeline

import (
	"io"
	"slices"
	"sort"
	"strconv"

	"cpr/internal/cache"
	"cpr/internal/design"
	"cpr/internal/geom"
	"cpr/internal/grid"
	"cpr/internal/router"
	"cpr/internal/tech"
)

// RouteArtifact is the cached routing product of one region: everything a
// later run needs to splice the region's routes into a result without
// re-routing it (strict mode), or to warm-start individual nets from it
// (eco-fast mode).
type RouteArtifact struct {
	// Region is the region index the artifact was produced for. Positional
	// provenance only — indices shift when unrelated regions appear — so
	// it is deliberately absent from the content key.
	Region int
	// Key is the content address of the region's routing inputs plus the
	// router fingerprint (see RouteKeyFor); empty when the artifact must
	// not be reused verbatim (e.g. it was produced by an eco-fast rerun,
	// whose routes are legal but not byte-equal to a cold run's).
	Key string
	// Nets lists the member net IDs, ascending (parallel to Routes).
	Nets []int
	// Names holds the member nets' names, parallel to Nets. Names never
	// reach the content key (a pure rename cannot change route bytes);
	// they are retained so eco-fast reruns can match nets across edits
	// that shift net IDs.
	Names []string
	// Sigs holds each member net's routing signature (NetSignature),
	// parallel to Nets — the eco-fast warm-start match condition.
	Sigs []string
	// Routes holds the member nets' routes, parallel to Nets.
	Routes []*router.NetRoute
	// Summary is the region's counter outcome, re-merged into rerun
	// results when the region is spliced. It deliberately carries no
	// wall-clock fields, so spliced work contributes zero elapsed time.
	Summary router.RegionSummary
}

// RouterFingerprint renders the result-affecting router configuration
// into a canonical string, the second half of the per-region route key.
// Workers is deliberately absent: the deterministic worker-pool contract
// makes route bytes identical for every worker count.
//
//keypurity:encoder stage
func RouterFingerprint(cfg router.Config) string {
	c := cfg.Normalized()
	b := make([]byte, 0, 128)
	b = append(b, "route-v4 order="...)
	b = append(b, c.Order.String()...)
	b = append(b, " iters="...)
	b = strconv.AppendInt(b, int64(c.MaxNegotiationIters), 10)
	b = append(b, " pres="...)
	b = appendFloat(b, c.PresentCostBase)
	b = append(b, ',')
	b = appendFloat(b, c.PresentCostGrowth)
	b = append(b, " hist="...)
	b = appendFloat(b, c.HistoryIncrement)
	b = append(b, " win="...)
	b = strconv.AppendInt(b, int64(c.WindowMargin), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(c.WindowGrowth), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(c.MaxWindowMargin), 10)
	b = append(b, " stall="...)
	b = strconv.AppendInt(b, int64(c.StallRounds), 10)
	b = append(b, " skipdrc="...)
	b = strconv.AppendBool(b, c.SkipDRC)
	return string(b)
}

// appendFloat appends f as formatFloat renders it.
func appendFloat(b []byte, f float64) []byte { return strconv.AppendFloat(b, f, 'g', -1, 64) }

// appendSeeds appends a "seeds [c1 c2 ...]" record, as the format verb
// "seeds %v" renders the cells.
func appendSeeds(b []byte, seeds []grid.NodeID) []byte {
	b = append(b, "seeds ["...)
	for i, id := range seeds {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(id), 10)
	}
	return append(b, "]\n"...)
}

// WriteRegionInputs writes the canonical encoding of every input that can
// affect one region's routes. This is the per-region half of the route
// key contract (DESIGN.md §4f):
//
//   - the grid extents and the full technology record;
//   - every member net: its ID, its pins (ascending by ID, with shapes),
//     its seeded pin-access cells (the assignment the router was seeded
//     with, by value — so the key holds regardless of which solver
//     produced it), and its influence rectangle (which bounds every
//     search window, clearance cell, and DRC avoid zone any stage can
//     touch);
//   - every design blockage clipped to the region's influence bounds
//     expanded by one cell (the extra cell covers forbidden-via
//     adjacency).
//
// Anything not encoded here — other regions' nets and seeds, blockages
// out of reach, net names, worker counts — provably cannot change the
// region's route bytes.
//
// A non-zero rule-engine selection is encoded as an extra record; the
// zero value emits nothing, keeping every pre-engine route key valid.
//
//keypurity:encoder stage
func WriteRegionInputs(w io.Writer, d *design.Design, rt *router.Router, rg *router.Region) error {
	// The records are appended to one buffer and written once.
	b := make([]byte, 0, 256+128*len(rg.Nets))
	t := d.Tech
	b = append(b, "region-inputs v1\ngrid"...)
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
	var pins []int
	for i, netID := range rg.Nets {
		rc := rg.Rects[i]
		b = append(b, "net"...)
		b = appendInts(b, netID)
		b = append(b, " rect"...)
		b = appendInts(b, rc.X0, rc.Y0, rc.X1, rc.Y1)
		b = append(b, '\n')
		pins = append(pins[:0], d.Nets[netID].PinIDs...)
		slices.Sort(pins)
		for _, pid := range pins {
			sh := d.Pins[pid].Shape
			b = append(b, "pin"...)
			b = appendInts(b, pid)
			b = append(b, " shape"...)
			b = appendInts(b, sh.X0, sh.Y0, sh.X1, sh.Y1)
			b = append(b, '\n')
		}
		if seeds := rt.SeededCells(netID); len(seeds) > 0 {
			b = appendSeeds(b, seeds)
		}
	}
	// Blockages within reach of the region, clipped so far-away edits to
	// the same blockage rect cannot dirty the region.
	bounds := rg.Bounds().Expand(1)
	for _, bl := range d.Blockages {
		clip := bl.Shape.Intersect(bounds)
		if clip.Empty() {
			continue
		}
		b = append(b, "blk"...)
		b = appendInts(b, bl.Layer, clip.X0, clip.Y0, clip.X1, clip.Y1)
		b = append(b, '\n')
	}
	_, err := w.Write(b)
	return err
}

// RegionHash returns the hex SHA-256 of the region's canonical input
// encoding. The router must be the one the region plan was computed on
// (its seeded cells are part of the encoding).
func RegionHash(d *design.Design, rt *router.Router, rg *router.Region) string {
	return hashOf(func(w io.Writer) error { return WriteRegionInputs(w, d, rt, rg) })
}

// RouteKeyFor returns the content address of one region's route bundle
// under the router's configuration. Always defined: routing is
// deterministic in its encoded inputs, so equal keys imply byte-identical
// route bundles.
func RouteKeyFor(d *design.Design, rt *router.Router, rg *router.Region) string {
	return cache.RouteKey(RegionHash(d, rt, rg), RouterFingerprint(rt.Configuration()))
}

// NetSignature canonically encodes everything that must be unchanged for
// a previous route of the net to be replayable on the current grid: the
// grid extents (route node IDs are grid-relative), the net's pin shapes
// (sorted, ID-independent — IDs shift under edits), and its seeded
// pin-access cells. Used by eco-fast warm-starting; a signature match
// does not promise legality (the surroundings may have changed), only
// that replaying is geometrically meaningful — the router still checks
// enterability and negotiation fixes the rest.
func NetSignature(d *design.Design, rt *router.Router, netID int) string {
	return hashOf(func(w io.Writer) error {
		b := make([]byte, 0, 64+48*len(d.Nets[netID].PinIDs))
		b = append(b, "netsig v1 grid"...)
		b = appendInts(b, d.Width, d.Height)
		b = append(b, '\n')
		shapes := make(byX0Y0, 0, len(d.Nets[netID].PinIDs))
		for _, pid := range d.Nets[netID].PinIDs {
			shapes = append(shapes, d.Pins[pid].Shape)
		}
		sort.Sort(shapes)
		for _, sh := range shapes {
			b = append(b, "pin"...)
			b = appendInts(b, sh.X0, sh.Y0, sh.X1, sh.Y1)
			b = append(b, '\n')
		}
		if seeds := rt.SeededCells(netID); len(seeds) > 0 {
			b = appendSeeds(b, seeds)
		}
		_, err := w.Write(b)
		return err
	})
}

// byX0Y0 orders pin shapes by X0, then Y0.
type byX0Y0 []geom.Rect

func (x byX0Y0) Len() int { return len(x) }
func (x byX0Y0) Less(a, b int) bool {
	if x[a].X0 != x[b].X0 {
		return x[a].X0 < x[b].X0
	}
	return x[a].Y0 < x[b].Y0
}
func (x byX0Y0) Swap(a, b int) { x[a], x[b] = x[b], x[a] }

// BuildRouteArtifacts bundles a finished run's routes into per-region
// artifacts for the run's plan. The artifacts reference res.Routes'
// entries, not copies: a finished result is read-only, and every
// consumer that edits routes (splicing, warm-starting) copies them on
// the way in. cacheable=false (eco-fast reruns) leaves every Key empty,
// so the bundles can still warm-start future eco-fast reruns but are
// never spliced verbatim into a strict one.
func BuildRouteArtifacts(d *design.Design, rt *router.Router, plan *router.Plan,
	res *router.Result, cacheable bool) []*RouteArtifact {

	arts := make([]*RouteArtifact, 0, len(plan.Regions))
	for _, rg := range plan.Regions {
		a := &RouteArtifact{
			Region:  rg.ID,
			Nets:    append([]int(nil), rg.Nets...),
			Names:   make([]string, len(rg.Nets)),
			Sigs:    make([]string, len(rg.Nets)),
			Routes:  make([]*router.NetRoute, len(rg.Nets)),
			Summary: res.RegionSummaries[rg.ID],
		}
		if cacheable {
			a.Key = RouteKeyFor(d, rt, rg)
		}
		for i, netID := range rg.Nets {
			a.Names[i] = d.Nets[netID].Name
			a.Sigs[i] = NetSignature(d, rt, netID)
			a.Routes[i] = res.Routes[netID]
		}
		arts = append(arts, a)
	}
	return arts
}

// WarmIndex indexes the route artifacts' member routes by (name,
// signature) for eco-fast warm-start matching. Unrouted entries are
// indexed too: a baseline's failure verdict is as transferable as its
// routes — the router gives a matched-but-failed net one fresh routing
// attempt instead of letting it churn through every negotiation round
// the baseline already spent on it.
func (s *ArtifactSet) WarmIndex() map[string]*router.NetRoute {
	m := make(map[string]*router.NetRoute)
	for _, a := range s.Routes {
		for i, nr := range a.Routes {
			if nr == nil {
				continue
			}
			m[a.Names[i]+"\n"+a.Sigs[i]] = nr
		}
	}
	return m
}
