package main

import (
	"context"
	"fmt"
	"os"
	"sync"

	"cpr/internal/telemetry"
)

// startProgress wires a local event bus into ctx so the pipeline's
// lr_iteration and negotiate_round events render live on stderr while
// the run is in flight. The returned stop function unsubscribes and
// waits for the renderer to drain; call it before printing the metrics
// row so progress lines and results do not interleave.
//
// The bus keeps the solver's observational contract: a slow terminal
// drops progress lines (reported at the end) instead of slowing the run.
func startProgress(ctx context.Context) (context.Context, func()) {
	bus := telemetry.NewEventBus(0)
	ctx = telemetry.WithEmitter(ctx, telemetry.NewEmitter(bus, "cli"))
	_, ch, cancel := bus.Subscribe("", 0, 1024)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for ev := range ch {
			renderProgress(ev)
		}
	}()
	stop := func() {
		cancel()
		wg.Wait()
		if n := bus.Dropped(); n > 0 {
			fmt.Fprintf(os.Stderr, "progress: %d events dropped (terminal too slow)\n", n)
		}
	}
	return ctx, stop
}

// renderProgress prints one progress line per solver event; other event
// types (span boundaries, cache outcomes) stay silent to keep the
// stream readable.
func renderProgress(ev telemetry.Event) {
	switch ev.Type {
	case "lr_iteration":
		fmt.Fprintf(os.Stderr, "progress: lr iter=%v violations=%v best=%v profit=%v dual=%v\n",
			ev.Data["iter"], ev.Data["violations"], ev.Data["best_violations"],
			ev.Data["profit"], ev.Data["dual"])
	case "negotiate_round":
		fmt.Fprintf(os.Stderr, "progress: route region=%v iter=%v overused=%v ripups=%v pops=%v\n",
			ev.Data["region"], ev.Data["iter"], ev.Data["overused"], ev.Data["ripups"], ev.Data["pops"])
	}
}
