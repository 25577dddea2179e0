package core

import (
	"context"

	"cpr/internal/design"
	"cpr/internal/grid"
	"cpr/internal/pipeline"
	"cpr/internal/router"
	"cpr/internal/telemetry"
	"cpr/internal/verify"
)

// routeIncremental runs the negotiation router for ModeCPR with region
// splicing and warm-starting. The router must already be seeded. It
// fills res.Artifacts' routing half, res.Incremental's routing fields,
// and the cpr_router_nets_total provenance counters. warmIndex maps a
// net's name+"\n"+signature to a base route (eco-fast reruns only; see
// pipeline.ArtifactSet.WarmIndex).
//
// Reuse never weakens the result contract:
//
//   - spliced regions are the ones opts.RouteCache answers by route
//     content key (pipeline.RouteKeyFor covers every routing input of
//     the region), so splicing is byte-identical to re-routing — strict
//     mode;
//   - warm-started runs (eco-fast) are re-verified with verify.Check,
//     and fall back to a full cold run on any violation.
func routeIncremental(ctx context.Context, d *design.Design, g *grid.Graph, opts Options,
	r *router.Router, seeds []PanelSeed, warmIndex map[string]*router.NetRoute, res *RunResult) *router.Result {

	plan := r.Partition()
	runOpts := router.RunOpts{Workers: opts.workers()}

	spliced := make(map[int]*router.SplicedRegion)
	if opts.RouteCache != nil {
		for _, rg := range plan.Regions {
			art, ok := routeCacheGet(ctx, opts.RouteCache, pipeline.RouteKeyFor(d, r, rg))
			if !ok || !sameInts(art.Nets, rg.Nets) {
				continue
			}
			spliced[rg.ID] = &router.SplicedRegion{Routes: art.Routes, Summary: art.Summary}
		}
	}

	// Eco-fast warm-starting for nets of dirtied regions: match by net
	// name plus routing signature (pin shapes, seeds, grid extents), so
	// ID shifts from edits cannot mismatch routes.
	var warm map[int]*router.NetRoute
	if warmIndex != nil {
		for netID := range d.Nets {
			if _, ok := spliced[plan.NetRegion[netID]]; ok {
				continue
			}
			sig := pipeline.NetSignature(d, r, netID)
			if nr, ok := warmIndex[d.Nets[netID].Name+"\n"+sig]; ok {
				cp := nr.Clone()
				cp.NetID = netID
				if warm == nil {
					warm = make(map[int]*router.NetRoute)
				}
				warm[netID] = cp
			}
		}
	}
	runOpts.Spliced, runOpts.Warm = spliced, warm

	rctx, span := telemetry.StartSpan(ctx, "route")
	span.SetAttr("regions", len(plan.Regions))
	span.SetAttr("regions_spliced", len(spliced))
	rres := r.RunPlan(rctx, plan, runOpts)
	splicedRegions := len(spliced)

	// Eco-fast safety net: a warm-started result must verify clean, or
	// the whole routing stage is redone cold (fresh grid — the warm run
	// has already mutated this one).
	if rres.WarmNets > 0 {
		if rep := verify.Check(d, g, rres); !rep.Ok() {
			span.SetAttr("eco_fallback", len(rep.Errors))
			g2 := grid.New(d)
			r2 := router.New(d, g2, r.Configuration())
			for _, s := range seeds {
				r2.SeedAssignment(s.Set, s.Solution)
			}
			r, g = r2, g2
			plan = r.Partition()
			rres = r.RunPlan(rctx, plan, router.RunOpts{Workers: opts.workers()})
			splicedRegions = 0
		}
	}
	span.SetAttr("routed_nets", rres.RoutedNets)
	span.SetAttr("vias", rres.Vias)
	span.SetAttr("wirelength", rres.Wirelength)
	span.SetAttr("negotiation_iters", rres.NegotiationIters)
	span.SetAttr("nets_spliced", rres.SplicedNets)
	span.SetAttr("nets_warm", rres.WarmNets)
	span.End()

	reg := telemetry.RegistryFrom(ctx)
	if reg != nil {
		reg.Histogram("cpr_stage_seconds", "Wall-clock time per pipeline stage.",
			telemetry.DefSecondsBuckets, telemetry.L("stage", "route")).
			Observe(rres.Elapsed.Seconds())
	}
	const netsHelp = "Nets finalized per routing run, by provenance."
	reg.Counter("cpr_router_nets_total", netsHelp, telemetry.L("source", "spliced")).
		Add(float64(rres.SplicedNets))
	reg.Counter("cpr_router_nets_total", netsHelp, telemetry.L("source", "warm")).
		Add(float64(rres.WarmNets))
	reg.Counter("cpr_router_nets_total", netsHelp, telemetry.L("source", "routed")).
		Add(float64(len(d.Nets) - rres.SplicedNets - rres.WarmNets))

	// Retain route bundles on the artifact set so this result can seed
	// the next rerun. A warm-started (eco-fast) result is legal but not
	// byte-equal to a cold run, so its bundles carry no content keys:
	// they can warm-start future eco-fast reruns but are never spliced
	// into a strict one.
	if res.Artifacts != nil {
		cacheable := rres.WarmNets == 0
		res.Artifacts.Routes = pipeline.BuildRouteArtifacts(d, r, plan, rres, cacheable)
		if opts.RouteCache != nil {
			for _, a := range res.Artifacts.Routes {
				if a.Key != "" {
					opts.RouteCache.Put(a.Key, a)
				}
			}
		}
	}

	if opts.RouteCache != nil && res.Incremental == nil {
		res.Incremental = &IncrementalStats{}
	}
	if res.Incremental != nil {
		res.Incremental.Regions = rres.Regions
		res.Incremental.RegionsSpliced = splicedRegions
		res.Incremental.NetsSpliced = rres.SplicedNets
		res.Incremental.NetsWarm = rres.WarmNets
		res.Incremental.NetsRerouted = len(d.Nets) - rres.SplicedNets - rres.WarmNets
	}
	return rres
}

// sameInts reports whether two int slices are element-wise equal.
func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
