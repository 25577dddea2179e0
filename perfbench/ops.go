package main

import (
	"fmt"
	"runtime"
	"time"
)

// outcome is what an op's output check yields, and what the op's traced
// replay must reproduce exactly.
type outcome struct {
	routed, nets, pins int
	objective          float64
	// layers is the time the public call reports for the stages it times
	// itself (pin access optimization, routing); a replay leaves it 0.
	layers time.Duration
}

// batch is a single-caller workload of n ops. run(i) makes op i's
// public call; check(i, t) checks its output off the clock (a traced run
// passes a tally for the check's own layer calls, an untraced run nil);
// replay(i) makes the same op as layer calls under the root span of a
// traced run.
type batch struct {
	n      int
	run    func(i int) error
	check  func(i int, t *tally) (outcome, error)
	replay func(tr *tracer, root int, t *tally, i int) (outcome, *pinOptReplay, error)
}

// runBatch times the ops one by one, checks each once its clock has
// stopped, and returns the clock and the summed outcome of the ops that
// passed.
func runBatch(r *report, b batch) (*opClock, outcome) {
	clock := &opClock{}
	var total outcome
	for i := 0; i < b.n; i++ {
		runtime.GC()
		var err error
		clock.time(func() { err = b.run(i) })
		var o outcome
		if err == nil {
			o, err = b.check(i, nil)
		}
		r.attempt(err)
		if err == nil {
			total.routed += o.routed
			total.nets += o.nets
			total.pins += o.pins
			total.objective += o.objective
		}
	}
	return clock, total
}

// traceBatch runs each op once as its public call, timed and checked,
// and once as layer calls under a root span (traceOps), and reports the
// per-layer metrics: the layer metrics of traceOps, the Go runtime
// counters of the public calls, and the replay's time against the
// public calls'.
func traceBatch(r *report, b batch, spans ...string) {
	tr := newTracer()
	clock := traceOps(r, tr, b, spans...)
	r.setRuntime(clock.mem, b.n)
	r.set("telemetry.overhead_pct", 100*(ms(tr.total("replay"))-ms(clock.wall))/ms(clock.wall), "%", b.n)
	r.close()
}

// traceOps runs each op of b as its public call, timed and checked, and
// replays it as layer calls under a root span named "replay". It reports
// the tally's counts, the summed time per op of each span name in spans,
// pinopt.panel_busy_pct, and core.self_ms. A replay that does not reach
// its call's outcome fails the op. It returns the public calls' clock.
//
// core.self_ms is the public call's time minus the stage times the call
// reports itself, minus the replay's grid build and partition, which
// the call does not time. Subtracting the replay's whole layer time
// instead would leave the difference of two separate runs of about a
// second each: on a shared host that difference is noise, often
// negative.
func traceOps(r *report, tr *tracer, b batch, spans ...string) *opClock {
	t := newTally()
	clock := &opClock{heap: true}
	var outside, busy, pool float64
	for i := 0; i < b.n; i++ {
		runtime.GC()
		var err error
		wall := clock.time(func() { err = b.run(i) })
		var want outcome
		if err == nil {
			want, err = b.check(i, t)
		}
		layers := want.layers
		want.layers = 0
		if err == nil {
			runtime.GC()
			untimed := tr.total("grid.build") + tr.total("router.partition")
			root := tr.begin("replay", -1)
			got, po, rerr := b.replay(tr, root, t, i)
			tr.finish(root)
			switch {
			case rerr != nil:
				err = rerr
			case got != want:
				err = fmt.Errorf("op %d: replay reached %+v, the public call %+v", i, got, want)
			default:
				untimed = tr.total("grid.build") + tr.total("router.partition") - untimed
				outside += ms(wall - layers - untimed)
				busy += ms(po.busy)
				pool += ms(po.wall) * float64(po.workers)
			}
		}
		r.attempt(err)
	}
	n := b.n
	t.ops = n
	t.report(r, tr, spans...)
	r.set("core.self_ms", outside/float64(n), "ms", n)
	r.set("pinopt.panel_busy_pct", 100*busy/pool, "%", n)
	return clock
}
