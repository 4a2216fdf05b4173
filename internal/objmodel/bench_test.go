package objmodel

import "testing"

// BenchmarkTableAllocFree measures object-table churn with growth: per
// op a fresh table grows to 16,384 records, frees every third one and
// refills those slots from the free list, with a mix of inline and
// overflow reference counts.
func BenchmarkTableAllocFree(b *testing.B) {
	const n = 16384
	ids := make([]ObjID, n)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := NewTable()
		for j := range ids {
			ids[j] = t.Alloc(uint64(j)*64, 64, SpaceNursery, j%7)
		}
		for j := 0; j < n; j += 3 {
			t.Free(ids[j])
		}
		for j := 0; j < n; j += 3 {
			ids[j] = t.Alloc(uint64(j)*64, 32, SpaceMatureDRAM, 2)
		}
	}
}
