package router

import (
	"testing"

	"cpr/internal/tech"
)

// TestHeuristicConsistent checks the search's heuristic edge by edge on
// random routing states (newSearchCase) under all three rule engines,
// with and without a present factor and an avoid set, a third of them
// with costs piled on the targets' approaches. The heuristic, searchScratch.h
// plus the A + T it is filed less, must be 0 at every target and at
// least 0 elsewhere, and on every window edge the search may take it may
// fall by at most what the edge charges: h(n) ≤ edge + nodecost(n′) +
// h(n′), to a relative 1e-9. The search may pop any node the net may
// enter (a source is not tested against the avoid set) and enters a
// neighbour n′ only when the net may enter it and the avoid set does not
// hold it. Without consistency the first target popped need not end a
// cheapest path. A source's key, h less A + T at g = 0, must be at least
// 0 too: the queue files a key under 0 at 0, out of order.
func TestHeuristicConsistent(t *testing.T) {
	engines := map[string]bool{}
	searches, priced := 0, 0
	for seed := int64(1); seed <= 200; seed++ {
		c, ok := newSearchCase(seed)
		if !ok {
			continue
		}
		engines[c.d.Tech.Patterning.Engine] = true
		s := c.r.wholeShard(make([]*NetRoute, len(c.d.Nets)))
		for i := 0; i < 8; i++ {
			sd, ok := c.draw(s)
			if !ok {
				continue
			}
			s.search(sd.netID, sd.sources, sd.targets, sd.win, sd.presFac)
			checkConsistent(t, s, sd)
			searches++
			if s.scratch.hTarget < 0 {
				priced++
			}
			if c.rng.Intn(3) == 0 {
				c.congest()
			}
		}
	}
	if len(engines) != 3 || priced < searches/4 {
		t.Fatalf("engines %v, %d of %d searches priced the approach: the states miss a case", engines, priced, searches)
	}
}

// checkConsistent checks h, as the search last left it on s, on every
// node and edge of sd's window.
func checkConsistent(t *testing.T, s *shard, sd searchDraw) {
	t.Helper()
	g, p, sc, win := s.g, s.engine(), &s.scratch, sd.win
	nc := nodeCoster{g: g, presFac: sd.presFac, margin: p.clearance, cRadius: p.cRadius, cWeight: p.cWeight}
	h := func(x, y, z int) float64 { return sc.h(int32(win.local(x, y, z)), x, y, z) - sc.hTarget }
	for _, id := range sd.targets {
		if x, y, z := g.Coords(id); win.contains(x, y) && h(x, y, z) != 0 {
			t.Fatalf("target (%d,%d,L%d): h = %v, want 0", x, y, z, h(x, y, z))
		}
	}
	for _, id := range sd.sources {
		x, y, z := g.Coords(id)
		if !win.contains(x, y) || !g.Enterable(id, sd.netID) {
			continue
		}
		li := int32(win.local(x, y, z))
		if sc.target[li] != sc.gen && sc.h(li, x, y, z) < 0 {
			t.Fatalf("source (%d,%d,L%d): key %v at g = 0, below 0", x, y, z, sc.h(li, x, y, z))
		}
	}
	type step struct{ x, y, z, cost int }
	for z := 0; z < tech.NumLayers; z++ {
		for y := win.y0; y < win.y0+win.h; y++ {
			for x := win.x0; x < win.x0+win.w; x++ {
				if !g.Enterable(g.ID(x, y, z), sd.netID) {
					continue
				}
				if h(x, y, z) < 0 {
					t.Fatalf("(%d,%d,L%d): h = %v, below 0", x, y, z, h(x, y, z))
				}
				var steps []step
				switch z {
				case tech.M1:
					steps = []step{{x, y, tech.M2, p.viaCost(g, x, y, 0)}}
				case tech.M2:
					steps = []step{{x - 1, y, z, p.wire}, {x + 1, y, z, p.wire},
						{x, y, tech.M1, p.viaCost(g, x, y, 0)}, {x, y, tech.M3, p.viaCost(g, x, y, 1)}}
				case tech.M3:
					steps = []step{{x, y - 1, z, p.wire}, {x, y + 1, z, p.wire}, {x, y, tech.M2, p.viaCost(g, x, y, 1)}}
				}
				for _, st := range steps {
					if !win.contains(st.x, st.y) {
						continue
					}
					nid := g.ID(st.x, st.y, st.z)
					if !g.Enterable(nid, sd.netID) || s.avoid.has(st.x, st.y, st.z) {
						continue
					}
					pay := float64(st.cost) + nc.cost(nid, st.x, st.y, st.z)
					if hn, hm := h(x, y, z), h(st.x, st.y, st.z); hn-(pay+hm) > 1e-9*max(1, hn) {
						t.Fatalf("edge (%d,%d,L%d) -> (%d,%d,L%d): h %v > edge and node cost %v + h %v (net %d, presFac %v, avoid %v)",
							x, y, z, st.x, st.y, st.z, hn, pay, hm, sd.netID, sd.presFac, sd.avoid != nil)
					}
				}
			}
		}
	}
}
