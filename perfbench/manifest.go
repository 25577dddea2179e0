package main

import (
	"fmt"
	"sort"
)

// metricDef is a metric BENCHMARK.json registers: its name and unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a -trace 0 run prints in its JSON line. Every
// workload measures each of them. The times are process CPU times: on a
// VM whose host steals CPU in phases lasting minutes, the wall time of
// identical runs varied by up to 1.8x and their CPU time by up to 1.3x,
// and a bound of at most a quarter can only hold on the latter. Wall
// times (ops_per_s, op_p50_ms, setup_wall_s, the daemon's per-kind
// latencies) and routed_pct appear in the table only.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
	{"ok_pct", "%"},
	{"objective_per_pin", "obj/pin"},
}

// layerGroup is a set of per-layer metrics that a workload either
// measures as a whole or bypasses as a whole.
type layerGroup struct {
	name    string
	metrics []metricDef
}

// perLayerGroups are the metrics a -trace 1 run prints in its JSON line,
// grouped by the layers behind them. A workload whose ops never reach a
// group's layers reports the group's metrics as 0: no work was done
// there.
var perLayerGroups = []layerGroup{
	{"runtime", []metricDef{
		{"heap.alloc_mb_per_op", "MB"},
		{"heap.allocs_per_op", "count"},
		{"gc.cycles_per_op", "count"},
		{"gc.pause_ms_per_op", "ms"},
		{"telemetry.overhead_pct", "%"},
	}},
	{"router", []metricDef{
		{"grid.build_ms", "ms"},
		{"router.partition_ms", "ms"},
		{"router.regions", "count"},
		{"router.rounds", "count"},
		{"router.initial_congested", "count"},
		{"router.unrouted_congestion", "count"},
		{"router.unrouted_drc", "count"},
		{"router.routed_pct", "%"},
		{"router.allocs", "count"},
		{"router.alloc_mb", "MB"},
		{"router.independent_ms", "ms"},
		{"router.negotiate_ms", "ms"},
		{"router.congestion_ms", "ms"},
		{"router.drc_ms", "ms"},
		{"verify.check_ms", "ms"},
	}},
	{"pinopt", []metricDef{
		{"pinaccess.generate_ms", "ms"},
		{"pinaccess.intervals", "count"},
		{"pinaccess.allocs", "count"},
		{"conflict.model_ms", "ms"},
		{"conflict.sets", "count"},
		{"conflict.allocs", "count"},
		{"lagrange.solve_ms", "ms"},
		{"lagrange.iterations", "count"},
		{"lagrange.converged_pct", "%"},
		{"lagrange.allocs", "count"},
		{"pinopt.panel_busy_pct", "%"},
		{"core.self_ms", "ms"},
		{"pipeline.key_ms", "ms"},
	}},
	{"daemon", []metricDef{
		{"designio.parse_ms", "ms"},
		{"designio.hash_ms", "ms"},
		{"designio.request_kb", "KB"},
		{"http.overhead_ms", "ms"},
		{"jobs.queue_wait_ms.cold", "ms"},
		{"jobs.queue_wait_ms.eco", "ms"},
		{"jobs.run_ms.cold", "ms"},
		{"jobs.run_ms.eco", "ms"},
		{"cache.design_hit_pct", "%"},
		{"cache.panel_hit_pct", "%"},
		{"cache.route_hit_pct", "%"},
		{"blockstore.puts", "count"},
		{"blockstore.put_mb", "MB"},
		{"exchange.local_hit_pct", "%"},
		{"codec.result_encode_ms", "ms"},
		{"codec.result_decode_ms", "ms"},
		{"codec.result_kb", "KB"},
		{"codec.artifact_encode_ms", "ms"},
		{"codec.artifact_decode_ms", "ms"},
		{"pipeline.panels_reused_pct", "%"},
		{"pipeline.regions_spliced_pct", "%"},
	}},
}

// perLayer lists every per-layer metric in group order.
func perLayer() []metricDef {
	var defs []metricDef
	for _, g := range perLayerGroups {
		defs = append(defs, g.metrics...)
	}
	return defs
}

// registered fills in the metrics of the groups the workload bypasses
// as 0 and checks that r holds every metric of defs in its unit. r's
// other metrics stay in its table but leave its JSON line.
func (r *report) registered(defs []metricDef, bypassed []string) error {
	for _, g := range perLayerGroups {
		for _, name := range bypassed {
			if g.name != name {
				continue
			}
			for _, m := range g.metrics {
				if _, dup := r.Metrics[m.name]; dup {
					return fmt.Errorf("%s is measured, but its layer group %s is marked bypassed", m.name, g.name)
				}
				r.set(m.name, 0, m.unit, 0)
			}
		}
	}
	var missing []string
	r.json = make(map[string]metric, len(defs))
	for _, d := range defs {
		m, ok := r.Metrics[d.name]
		switch {
		case !ok:
			missing = append(missing, d.name)
		case m.Unit != d.unit:
			return fmt.Errorf("%s is measured in %s, registered in %s", d.name, m.Unit, d.unit)
		default:
			r.json[d.name] = m
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("registered metrics not measured: %v", missing)
	}
	return nil
}
