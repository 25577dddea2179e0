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
	"golden-a/sadp/cpr":        "fc2baa6c273890fe0ef4803f61175edc63de25601a7299d789c5186801191821",
	"golden-a/sadp/no-pinopt":  "42bf0f33362acf5657a35c05cb839654d875cf5d185ae8ea7233e401f0e266c6",
	"golden-a/sadp/sequential": "7e6aa21f24ef753f686d0c932723b979da7279999899fe511d05975204ec09c6",
	"golden-a/lele/cpr":        "bd0de2c7531dc309665a2af384dee02d14123d2714e4da85438bf066a112ba35",
	"golden-a/lele/no-pinopt":  "fdddeee87f03499f2eac2b441c79b89c323aec8d39df96994602520c023a74b6",
	"golden-a/lele/sequential": "b2f7ddc067c4db8ca6fef394d0c78958d8d8b61e613919574e88e75ecbdef34e",
	"golden-a/tpl/cpr":         "bdb6671a172727fffca97962b92d44372577e0e659d269af6651ee58baabe3fe",
	"golden-a/tpl/no-pinopt":   "3c5adc802e5db403f391eb470af1e13d568e0c0f0b17daa5e09e1626a32f07cd",
	"golden-a/tpl/sequential":  "e8c992d8ae908e0cfc3bfb00a50f65f7b738973ad9f357f6c7277b0eee3506d4",
	"golden-b/sadp/cpr":        "696923221dc0eebd1594847010f6a843e080e16cfa6520ede8077bc4a7310c78",
	"golden-b/sadp/no-pinopt":  "ac69da609eaf6702a23adccfb97ba7ddcd24efe5e34db7c88601db6a4f1d7896",
	"golden-b/sadp/sequential": "3f268f1a57716e38d12955a8af7affd5175b9222d164da493bae914470e01ff9",
	"golden-b/lele/cpr":        "0890fe64dbd53cfbbb501a07a557d8069466d218ca9988f5174d07cd1b2380b5",
	"golden-b/lele/no-pinopt":  "5a41a34b69f2a961aba941de69875be262836b29eab657a9355873fb088d6aa0",
	"golden-b/lele/sequential": "f3c5155c9e52333866e778488f54a05b7ced7aad4fc1c6156ed39c89abe77fa2",
	"golden-b/tpl/cpr":         "fcfb96fdc3c55fdcb691f5c9dc7d5d4d85aa078420fa894086ae70fb8d76e09c",
	"golden-b/tpl/no-pinopt":   "c35461050411f5b3137ca70a3adb5cc24bdecc9909273f0884d0675fb83ff334",
	"golden-b/tpl/sequential":  "4bb23f901fabbe703b93e038d8129d8503b0af2f4d3a7235caf27f9f39d45cbe",
}

// goldenSearchWork pins router.Result.Search for every golden case.
// Routed bytes cannot tell a search that pops a different sequence but
// lands on the same path from the recorded one; equal counters show that
// a search optimization dropped only offers the frontier would have
// rejected anyway. They move with the routes, and also with a change to
// the search's order of work that keeps every route: the values were
// recorded when the A* heuristic began to price the pin approach, which
// left all routes here unchanged and cut the pops up to 5.3x.
var goldenSearchWork = map[string]router.SearchStats{
	"golden-a/sadp/cpr":        {Searches: 258, Pushes: 41224, Pops: 28206, StalePops: 246},
	"golden-a/sadp/no-pinopt":  {Searches: 258, Pushes: 44649, Pops: 29171, StalePops: 371},
	"golden-a/sadp/sequential": {Searches: 318, Pushes: 232851, Pops: 220627, StalePops: 5485},
	"golden-a/lele/cpr":        {Searches: 519, Pushes: 80774, Pops: 53162, StalePops: 689},
	"golden-a/lele/no-pinopt":  {Searches: 384, Pushes: 66818, Pops: 42267, StalePops: 440},
	"golden-a/lele/sequential": {Searches: 353, Pushes: 241723, Pops: 229684, StalePops: 5192},
	"golden-a/tpl/cpr":         {Searches: 269, Pushes: 68012, Pops: 51286, StalePops: 1305},
	"golden-a/tpl/no-pinopt":   {Searches: 340, Pushes: 75977, Pops: 51602, StalePops: 1133},
	"golden-a/tpl/sequential":  {Searches: 318, Pushes: 232851, Pops: 220627, StalePops: 5485},
	"golden-b/sadp/cpr":        {Searches: 322, Pushes: 62947, Pops: 40081, StalePops: 529},
	"golden-b/sadp/no-pinopt":  {Searches: 351, Pushes: 76513, Pops: 47442, StalePops: 547},
	"golden-b/sadp/sequential": {Searches: 307, Pushes: 177670, Pops: 165512, StalePops: 3788},
	"golden-b/lele/cpr":        {Searches: 566, Pushes: 110138, Pops: 67258, StalePops: 774},
	"golden-b/lele/no-pinopt":  {Searches: 530, Pushes: 134075, Pops: 81611, StalePops: 1104},
	"golden-b/lele/sequential": {Searches: 312, Pushes: 147522, Pops: 136748, StalePops: 2034},
	"golden-b/tpl/cpr":         {Searches: 405, Pushes: 126362, Pops: 87088, StalePops: 2040},
	"golden-b/tpl/no-pinopt":   {Searches: 336, Pushes: 135434, Pops: 94581, StalePops: 2408},
	"golden-b/tpl/sequential":  {Searches: 307, Pushes: 177670, Pops: 165512, StalePops: 3788},
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
	"golden-a/sadp":       "66b514b236359ac22c4caec74570a24a83a51d36c42486a7224a325f27c9a7c1",
	"golden-a/lele":       "0b79f9bd9bf1b6acac95007050c3feeea2cfb9090326912a709d9bd5b7b39975",
	"golden-a/tpl":        "59bce9a443d6e811fa64cbcb6889be5d6700c0a7be485da00b020acae467405e",
	"golden-b/sadp":       "fd1496fdd6aee2774e1a9a596a3ca9de0076b6e95e63ca99fc805d6db4cf4dc6",
	"golden-b/lele":       "3f766454fd7c90485fcc5e924b501afb93119d962f3408b22a54667f4228f6a7",
	"golden-b/tpl":        "534ce9cc8f6881176babd62bf8bd96ec98881ed3e9e200981feb3eaf6a9303fb",
	"router-fingerprints": "73d04192d423e02c0d85e68441870e3ddde70b8ed8c46b2b5155105ae7a1a3c5",
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
