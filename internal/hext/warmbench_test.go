package hext

import (
	"testing"

	"ace/internal/gen"
)

// Benchmarks for the persistent-cache paths. End-to-end HEXT runs are
// measured by bench/ (bash bench/run.sh, the hier-chips workload).

func BenchmarkColdHext(b *testing.B) {
	f := gen.Replicated(64).File
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Extract(f, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWarmProcess(b *testing.B) {
	dir := b.TempDir()
	f := gen.Replicated(64).File
	if _, err := NewSession(Options{CacheDir: dir}).Extract(f); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewSession(Options{CacheDir: dir}).Extract(f); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEditApply(b *testing.B) {
	base := editableChip(false)
	edit := editOneCell()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := NewSession(Options{})
		if _, err := s.Extract(base); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := s.Apply(edit); err != nil {
			b.Fatal(err)
		}
	}
}
