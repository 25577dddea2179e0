package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"cpr/internal/design"
	"cpr/internal/designio"
	"cpr/internal/grid"
	"cpr/internal/pipeline"
	"cpr/internal/router"
	"cpr/internal/synth"
	"cpr/internal/tech"
)

// goldenSpecs are the fixed designs the routed-bytes golden runs on:
// dense enough that every flow negotiates, reroutes and drops nets, small
// enough that the eighteen runs stay within a few seconds.
var goldenSpecs = []synth.Spec{
	{Name: "golden-a", Nets: 70, Width: 70, Height: 120, Seed: 61, BlockageFraction: 0.04},
	{Name: "golden-b", Nets: 60, Width: 120, Height: 48, Seed: 62, NoPowerRails: true},
}

// goldenRouteHashes pins the sha256 of routeDigest for every rule engine
// and routing flow. Every other byte-identity suite compares two runs of
// one binary (worker counts, strict rerun against cold, traced against
// untraced), so a change that breaks ties differently but
// deterministically passes all of them; this table is what catches it.
// Regenerate it only for a change that is meant to move routes, and say
// so in the change description.
var goldenRouteHashes = map[string]string{
	"golden-a/sadp/cpr":        "7a22da3e22bc4b288e04a7be8a77554a086e98a0f153b17503f175d315cc1fcc",
	"golden-a/sadp/no-pinopt":  "1e1c05bf73e3891351b67c682af1d8b826c3edb84d554f986d4a496854a24a0d",
	"golden-a/sadp/sequential": "66cc285092998bb3f1e84f6bcd794224525dc37833c97ecf5e1fbd32c60e19ba",
	"golden-a/lele/cpr":        "558e994d9e4b00eb9ec4817089b172caee94da3d45d1254bb18a2a0bd006ab73",
	"golden-a/lele/no-pinopt":  "f45fd96aca7a157a3782b28b8c5e985e51eecd2bdb50bbb52ede34ec40217993",
	"golden-a/lele/sequential": "7510cb4883a3ed30c34aa7c2aa4851a6a996e444b74097af8a609697b091598a",
	"golden-a/tpl/cpr":         "ac5b0444229376ae546781a6bb95c508d863dbbdd60c01878b8a503676a8d07a",
	"golden-a/tpl/no-pinopt":   "c794d7f13fba9af6a74a40bf1f93df2872de4a4763b32b4c0918a48f3df500d5",
	"golden-a/tpl/sequential":  "7b53d0f65e78f53ec2dfda22077670d89ae203ea7b411531b25eb81308a4128d",
	"golden-b/sadp/cpr":        "9d3c18ac2df3c5d6bcd00f4b336a361d47d4f3ee856c2ac201e56e8e30dfac09",
	"golden-b/sadp/no-pinopt":  "9e4eeab4761e804e2e603756af7e29b7ca9289b1be998ab46f7a461cdeb6006d",
	"golden-b/sadp/sequential": "7d7e78462347189143144a947892b0a76147203e1b2400b4f96fbc07bd3aa238",
	"golden-b/lele/cpr":        "68b6d8c4abf8e45618e566e6898ff7507d368963c8e9f229adc8a4e20a8f77c5",
	"golden-b/lele/no-pinopt":  "f02de3ab797668cd645fe3689ba90b9c4b4411778c5ba28924fb88352ec75487",
	"golden-b/lele/sequential": "757e0c55e09a7140d4c6914028eccdc28f15cb240bc62c54d389af27db1b8667",
	"golden-b/tpl/cpr":         "13b2f36f54e6808d3bc2a902af352c350194839f7a88478b6c38c3ffa7389205",
	"golden-b/tpl/no-pinopt":   "d2a35283fc37962d45add91bc2d3bbc0a73bd03994ebe63ad5ce17138a88273d",
	"golden-b/tpl/sequential":  "2aa432c99b83275dcd896f1dbf55ae3acbf5467db13da2bfbff26ad2ac30c2d2",
}

// goldenSearchWork pins router.Result.Search for every golden case.
// Routed bytes cannot tell a search that pops a different sequence but
// lands on the same path from the recorded one; equal counters show that
// a search optimization dropped only offers the frontier would have
// rejected anyway. The values were recorded before the router skipped
// settled and blocked neighbours; they change only with the routes.
var goldenSearchWork = map[string]router.SearchStats{
	"golden-a/sadp/cpr":        {Searches: 256, Pushes: 275828, Pops: 249207, StalePops: 0},
	"golden-a/sadp/no-pinopt":  {Searches: 274, Pushes: 273493, Pops: 236682, StalePops: 0},
	"golden-a/sadp/sequential": {Searches: 309, Pushes: 463008, Pops: 446584, StalePops: 0},
	"golden-a/lele/cpr":        {Searches: 444, Pushes: 617022, Pops: 520972, StalePops: 0},
	"golden-a/lele/no-pinopt":  {Searches: 419, Pushes: 583704, Pops: 472971, StalePops: 0},
	"golden-a/lele/sequential": {Searches: 325, Pushes: 430552, Pops: 414483, StalePops: 0},
	"golden-a/tpl/cpr":         {Searches: 280, Pushes: 335317, Pops: 301758, StalePops: 0},
	"golden-a/tpl/no-pinopt":   {Searches: 345, Pushes: 397101, Pops: 341304, StalePops: 0},
	"golden-a/tpl/sequential":  {Searches: 309, Pushes: 463008, Pops: 446584, StalePops: 0},
	"golden-b/sadp/cpr":        {Searches: 340, Pushes: 486371, Pops: 408636, StalePops: 0},
	"golden-b/sadp/no-pinopt":  {Searches: 331, Pushes: 542719, Pops: 441615, StalePops: 0},
	"golden-b/sadp/sequential": {Searches: 282, Pushes: 431680, Pops: 416765, StalePops: 0},
	"golden-b/lele/cpr":        {Searches: 400, Pushes: 616968, Pops: 501050, StalePops: 0},
	"golden-b/lele/no-pinopt":  {Searches: 549, Pushes: 1104033, Pops: 830842, StalePops: 0},
	"golden-b/lele/sequential": {Searches: 295, Pushes: 325114, Pops: 312595, StalePops: 0},
	"golden-b/tpl/cpr":         {Searches: 373, Pushes: 499982, Pops: 427266, StalePops: 0},
	"golden-b/tpl/no-pinopt":   {Searches: 459, Pushes: 706070, Pops: 589974, StalePops: 0},
	"golden-b/tpl/sequential":  {Searches: 282, Pushes: 431680, Pops: 416765, StalePops: 0},
}

// routeDigest hashes the design bytes and, per net, the route identity:
// NetID, Routed, FailReason, Nodes, Edges and Virtual.
func routeDigest(t *testing.T, d *design.Design, res *RunResult) string {
	t.Helper()
	h := sha256.New()
	if err := designio.Write(h, d); err != nil {
		t.Fatal(err)
	}
	for _, nr := range res.Router.Routes {
		if nr == nil {
			fmt.Fprintln(h, "nil")
			continue
		}
		fmt.Fprintf(h, "net %d routed=%v fail=%q nodes %v edges %v virtual %v\n",
			nr.NetID, nr.Routed, nr.FailReason, nr.Nodes, nr.Edges, nr.Virtual)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestRoutedBytesGolden pins the routed bytes and the path search work
// of every (engine, flow) pair across commits.
func TestRoutedBytesGolden(t *testing.T) {
	for _, spec := range goldenSpecs {
		for _, engine := range []string{tech.EngineSADP, tech.EngineLELE, tech.EngineTPL} {
			for _, mode := range []Mode{ModeCPR, ModeNoPinOpt, ModeSequential} {
				name := spec.Name + "/" + engine + "/" + mode.String()
				t.Run(name, func(t *testing.T) {
					d := generateWithEngine(t, spec, engine)
					res, err := Run(d, Options{Mode: mode, Workers: 2})
					if err != nil {
						t.Fatal(err)
					}
					if got, want := routeDigest(t, d, res), goldenRouteHashes[name]; got != want {
						t.Errorf("routed bytes moved: got %s, want %s (%d/%d nets routed, %d rounds)",
							got, want, res.Router.RoutedNets, len(res.Router.Routes), res.Router.NegotiationIters)
					}
					if got, want := res.Router.Search, goldenSearchWork[name]; got != want {
						t.Errorf("search work moved: got %+v, want %+v", got, want)
					}
				})
			}
		}
	}
}

// goldenRouteKeyHashes pins, across commits, the bytes of the route-side
// content keys: every region's RouteKeyFor and every net's NetSignature
// on each golden design and rule engine, and the RouterFingerprint of a
// default and a non-default router configuration. These keys address
// route blocks on disk and at peers, so a rewrite of their encoders must
// keep every byte; the same-binary suites cannot tell.
var goldenRouteKeyHashes = map[string]string{
	"golden-a/sadp":       "e23e4b5eb4c48d2f49484360046ceccfab96364ced548e20733acc4f13ae4101",
	"golden-a/lele":       "c6da11dde861ed8807a552034c8935da516a350090d7618d1c4e4d42b86f779c",
	"golden-a/tpl":        "bfe9d03ae031d85b4a26992be53b9dde520fff3500550d78ba12e49e8cec16f2",
	"golden-b/sadp":       "326511b29e154cd21374afb3ce0179a6e6e82c95e641ae779e2a14a551ecf3e9",
	"golden-b/lele":       "ba9db7d217eacf4f6088b229a84adb3db7005006f9f1d6b4458bc132d97bb5f8",
	"golden-b/tpl":        "217a74bdcf6bddba31ba83abd86c7185eb6a31ab669571be5c06b89c75bf119f",
	"router-fingerprints": "eab77c3e688be6927fb87066dd3b741938880aae0938aab3741ce34cb2b62a60",
}

// TestRouteKeysGolden pins the route keys, net signatures and router
// fingerprints across commits. The keys are taken on the seeded router
// before any routing, as routeIncremental takes them.
func TestRouteKeysGolden(t *testing.T) {
	check := func(t *testing.T, name string, h hash.Hash) {
		t.Helper()
		if got, want := hex.EncodeToString(h.Sum(nil)), goldenRouteKeyHashes[name]; got != want {
			t.Errorf("route key bytes moved: got %s, want %s", got, want)
		}
	}
	for _, spec := range goldenSpecs {
		for _, engine := range []string{tech.EngineSADP, tech.EngineLELE, tech.EngineTPL} {
			name := spec.Name + "/" + engine
			t.Run(name, func(t *testing.T) {
				d := generateWithEngine(t, spec, engine)
				_, seeds, err := OptimizePinAccess(d, Options{Workers: 2})
				if err != nil {
					t.Fatal(err)
				}
				r := router.New(d, grid.New(d), router.Config{Workers: 2})
				for _, s := range seeds {
					r.SeedAssignment(s.Set, s.Solution)
				}
				h := sha256.New()
				for _, rg := range r.Partition().Regions {
					fmt.Fprintf(h, "region %d %s\n", rg.ID, pipeline.RouteKeyFor(d, r, rg))
				}
				for netID := range d.Nets {
					fmt.Fprintf(h, "net %d %s\n", netID, pipeline.NetSignature(d, r, netID))
				}
				check(t, name, h)
			})
		}
	}
	t.Run("router-fingerprints", func(t *testing.T) {
		h := sha256.New()
		for _, cfg := range []router.Config{{}, {
			Order: router.OrderByPins, MaxNegotiationIters: 7,
			PresentCostBase: 0.75, PresentCostGrowth: 1.25, HistoryIncrement: 0.5,
			WindowMargin: 5, WindowGrowth: 3, MaxWindowMargin: 21, StallRounds: 2, SkipDRC: true,
		}} {
			fmt.Fprintln(h, pipeline.RouterFingerprint(cfg))
		}
		check(t, "router-fingerprints", h)
	})
}
