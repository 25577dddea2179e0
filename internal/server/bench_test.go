package server

import (
	"context"
	"net/http/httptest"
	"testing"

	"cpr/client"
	"cpr/internal/jobs"
)

// benchServer wires a real-pipeline server big enough for the bench
// specs.
func benchServer(b *testing.B) *client.Client {
	b.Helper()
	mgr := jobs.New(jobs.Config{MaxConcurrent: 2}, jobs.NewExchangedResultCache(1<<16, 0, 0, memExchange()))
	ts := httptest.NewServer(New(mgr).Handler())
	b.Cleanup(ts.Close)
	return client.New(ts.URL)
}

var benchSpec = client.Spec{Name: "bench", Nets: 20, Width: 80, Height: 30, Seed: 9}

// BenchmarkSubmitCached measures the full HTTP round trip for a request
// answered from the content-addressed cache (no optimizer run).
func BenchmarkSubmitCached(b *testing.B) {
	c := benchServer(b)
	ctx := context.Background()
	if _, err := c.Submit(ctx, client.SubmitRequest{Spec: &benchSpec, Wait: true}); err != nil {
		b.Fatalf("priming run: %v", err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		job, err := c.Submit(ctx, client.SubmitRequest{Spec: &benchSpec, Wait: true})
		if err != nil {
			b.Fatalf("submit: %v", err)
		}
		if !job.Cached {
			b.Fatalf("iteration %d missed the cache", i)
		}
	}
}

// BenchmarkSubmitUncached measures the same round trip when every request
// is a novel design and must run the optimizer (seed varies per
// iteration, so no request ever hits the cache).
func BenchmarkSubmitUncached(b *testing.B) {
	c := benchServer(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec := benchSpec
		spec.Seed = int64(1000 + i)
		job, err := c.Submit(ctx, client.SubmitRequest{Spec: &spec, Wait: true})
		if err != nil {
			b.Fatalf("submit: %v", err)
		}
		if job.Cached {
			b.Fatalf("iteration %d unexpectedly hit the cache", i)
		}
	}
}
