package store

import (
	"testing"
)

// benchBody approximates a journaled platform mutation.
type benchBody struct {
	ID       string  `json:"id"`
	Deadline float64 `json:"deadline"`
	Iters    float64 `json:"iters"`
	GPUs     int     `json:"gpus"`
}

// BenchmarkAppend measures framing + write throughput with fsync disabled —
// the store's own cost, independent of disk sync latency.
func BenchmarkAppend(b *testing.B) {
	s, err := Open(b.TempDir(), Options{NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	body := benchBody{ID: "job-0001", Deadline: 3600, Iters: 80000, GPUs: 8}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Append("submit", float64(i), body, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendDurable measures the full durable path: framing, write, and
// group-committed fsync per append.
func BenchmarkAppendDurable(b *testing.B) {
	s, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	body := benchBody{ID: "job-0001", Deadline: 3600, Iters: 80000, GPUs: 8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Append("submit", float64(i), body, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecovery measures Open over a journal of 10k records plus a
// snapshot — the restart path the benchmark's serverless.recover_s times
// end to end.
func BenchmarkRecovery(b *testing.B) {
	dir := b.TempDir()
	s, err := Open(dir, Options{NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Snapshot(make([]byte, 64<<10)); err != nil {
		b.Fatal(err)
	}
	body := benchBody{ID: "job-0001", Deadline: 3600, Iters: 80000, GPUs: 8}
	for i := 0; i < 10000; i++ {
		if _, err := s.Append("submit", float64(i), body, false); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := Open(dir, Options{NoSync: true})
		if err != nil {
			b.Fatal(err)
		}
		if len(r.RecoveredTail()) != 10000 {
			b.Fatalf("recovered %d records", len(r.RecoveredTail()))
		}
		r.Close()
	}
}
