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
	"golden-a/sadp/cpr":        "7d81164d5fb239ef4c6c15a9f0fc84afa7b81d60b6d356702429c43ae3bb2c0a",
	"golden-a/sadp/no-pinopt":  "f4ce065c8c06982f4abb20f43bb8148d417a42ffec81dba78c477490be751932",
	"golden-a/sadp/sequential": "e17aef82519f512443ff49495ab90d735bc47f7583687ebac40ce806a31b098c",
	"golden-a/lele/cpr":        "d7fef5d3c455346db6a1059d14767160accb4178f9f89f5b4a6343be4711af1b",
	"golden-a/lele/no-pinopt":  "fdddeee87f03499f2eac2b441c79b89c323aec8d39df96994602520c023a74b6",
	"golden-a/lele/sequential": "5568039b7286c26296dc06afc4a7a41c29f0b6bd012f9b7f921eee68d2f03b53",
	"golden-a/tpl/cpr":         "9c8bcdf33dc48fc6263059758034df620320ef231022709fdcdb20e7d523097f",
	"golden-a/tpl/no-pinopt":   "c2118ffb37d9e68ea41b23e8600814b19aad04510de1d767fa4594920119ce2d",
	"golden-a/tpl/sequential":  "728b1187671fada845d69b429acde4022b859bd4aa24e9a7a626da06fc15862b",
	"golden-b/sadp/cpr":        "b8a2c786186c180b845e3d37a58557667dbb9475be8db5031d9978141f3edefd",
	"golden-b/sadp/no-pinopt":  "45ff12d8557187e3c69a5a4aa76dd3251121bbfc2803fabea788ec44cbcf90d4",
	"golden-b/sadp/sequential": "3f268f1a57716e38d12955a8af7affd5175b9222d164da493bae914470e01ff9",
	"golden-b/lele/cpr":        "f187b7df943195d8c67ed8913dab5e687e063949748c445e2a2f942b727b6965",
	"golden-b/lele/no-pinopt":  "995332673c0e98aa1498dd6bf6decd16eae2d73a3f984d724e98761b4ac8b25f",
	"golden-b/lele/sequential": "f3c5155c9e52333866e778488f54a05b7ced7aad4fc1c6156ed39c89abe77fa2",
	"golden-b/tpl/cpr":         "852af5cf5a2f001bd6a3b90162c40fbc9c2855b50d2ac08ecc312bd44ffb2d18",
	"golden-b/tpl/no-pinopt":   "c67dec09b97f871a35ce17ae5646df7b5395b0aaba593d68f0777b4c100fd2bf",
	"golden-b/tpl/sequential":  "4bb23f901fabbe703b93e038d8129d8503b0af2f4d3a7235caf27f9f39d45cbe",
}

// goldenSearchWork pins router.Result.Search for every golden case.
// Routed bytes cannot tell a search that pops a different sequence but
// lands on the same path from the recorded one; equal counters show that
// a search optimization dropped only offers the frontier would have
// rejected anyway. The values were recorded when the search became A*;
// they change only with the routes.
var goldenSearchWork = map[string]router.SearchStats{
	"golden-a/sadp/cpr":        {Searches: 244, Pushes: 63321, Pops: 48057, StalePops: 1662},
	"golden-a/sadp/no-pinopt":  {Searches: 258, Pushes: 61853, Pops: 43286, StalePops: 1343},
	"golden-a/sadp/sequential": {Searches: 318, Pushes: 238331, Pops: 225272, StalePops: 5962},
	"golden-a/lele/cpr":        {Searches: 518, Pushes: 346724, Pops: 279530, StalePops: 6458},
	"golden-a/lele/no-pinopt":  {Searches: 384, Pushes: 180868, Pops: 130484, StalePops: 3579},
	"golden-a/lele/sequential": {Searches: 353, Pushes: 247315, Pops: 234362, StalePops: 5658},
	"golden-a/tpl/cpr":         {Searches: 269, Pushes: 107185, Pops: 85263, StalePops: 2742},
	"golden-a/tpl/no-pinopt":   {Searches: 340, Pushes: 133966, Pops: 101551, StalePops: 3145},
	"golden-a/tpl/sequential":  {Searches: 318, Pushes: 238331, Pops: 225272, StalePops: 5962},
	"golden-b/sadp/cpr":        {Searches: 362, Pushes: 124307, Pops: 85563, StalePops: 1787},
	"golden-b/sadp/no-pinopt":  {Searches: 353, Pushes: 127239, Pops: 84073, StalePops: 1807},
	"golden-b/sadp/sequential": {Searches: 307, Pushes: 183944, Pops: 170648, StalePops: 3614},
	"golden-b/lele/cpr":        {Searches: 583, Pushes: 441789, Pops: 321308, StalePops: 5912},
	"golden-b/lele/no-pinopt":  {Searches: 541, Pushes: 343848, Pops: 227246, StalePops: 4514},
	"golden-b/lele/sequential": {Searches: 312, Pushes: 153478, Pops: 141948, StalePops: 2440},
	"golden-b/tpl/cpr":         {Searches: 335, Pushes: 129687, Pops: 93929, StalePops: 2996},
	"golden-b/tpl/no-pinopt":   {Searches: 410, Pushes: 239489, Pops: 171727, StalePops: 4182},
	"golden-b/tpl/sequential":  {Searches: 307, Pushes: 183944, Pops: 170648, StalePops: 3614},
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
	"golden-a/sadp":       "d80da489fd8fb4e2d6d29a27eb98c62cf355454254738ad74d0f3a1789f1d5bf",
	"golden-a/lele":       "b48d2c961baf3603dc8d160e9bc405f2920d9dea033afe04c5064921abe3dafb",
	"golden-a/tpl":        "4b40896b4571756d2b37a899f9ba54b1f94bb274b1f04a26e4c313d6a6ebaa5e",
	"golden-b/sadp":       "6ff21710719cc7484a41552cfd28adb2dedda078f4b20c69e38b082b1ea9c6a1",
	"golden-b/lele":       "c8a6222f231b4c2e218911c2ac8d6d80cb1cbc4bc53f994058310bbc9ce406db",
	"golden-b/tpl":        "94dc341c2c2f4bdc3ff0f5be2b025948d8131aac8d856aa9c51798de4bb226fd",
	"router-fingerprints": "a7c4aa921518f1bf539b398765a6ed672cb918753550d2d89e380c23678cb740",
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
