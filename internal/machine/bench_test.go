package machine

import "testing"

// BenchmarkAccessCached measures the full L1-hit path through the
// machine (the platform's hottest operation).
func BenchmarkAccessCached(b *testing.B) {
	m := New(DefaultConfig())
	th := m.NewThread("bench", 0, 0)
	th.Access(0, 8, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		th.Access(0, 8, true)
	}
}

// BenchmarkAccessStreaming measures the miss+writeback path over a
// working set far beyond the caches.
func BenchmarkAccessStreaming(b *testing.B) {
	m := New(DefaultConfig())
	th := m.NewThread("bench", 0, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		th.Access(uint64(i%(1<<24))*64, 8, true)
	}
}

// BenchmarkAccessRemote measures accesses homed on the remote socket
// (the PCM path, crossing QPI).
func BenchmarkAccessRemote(b *testing.B) {
	cfg := DefaultConfig()
	m := New(cfg)
	th := m.NewThread("bench", 0, 0)
	base := cfg.NodeBytes
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		th.Access(base+uint64(i%(1<<24))*64, 8, true)
	}
}

// BenchmarkAccessLinesZeroPage measures the kernel's fault-zeroing
// path: one cold 4 KB page (64 lines) written through L1/L2/L3 per
// op, each op on a page not touched since the caches last held it, so
// every line misses all three levels and dirty victims cascade.
func BenchmarkAccessLinesZeroPage(b *testing.B) {
	m := New(DefaultConfig())
	th := m.NewThread("bench", 0, 0)
	const pages = 1 << 16 // 256 MB of frames, 12x the L3
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		th.AccessLines(uint64(i%pages)*4096, 4096/LineSize, true)
	}
}
