package hw

import (
	"math"
	"testing"

	"vpp/internal/pagetable"
)

// BenchmarkTLBLookup measures the 64-entry associative search.
func BenchmarkTLBLookup(b *testing.B) {
	tlb := NewTLB(DefaultTLBEntries)
	for i := uint32(0); i < DefaultTLBEntries; i++ {
		tlb.Insert(1, i, pagetable.MakePTE(i, pagetable.PTEValid))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tlb.Lookup(1, uint32(i)%DefaultTLBEntries)
	}
}

// BenchmarkL2Access measures the direct-mapped tag check on two
// reference streams: stream never repeats a line, so every access
// takes the tag lookup, and same-line reads the words of one line, so
// every access after the first is answered by the last-line memo.
func BenchmarkL2Access(b *testing.B) {
	b.Run("stream", func(b *testing.B) {
		c := NewL2Cache(8 << 20)
		for i := 0; i < b.N; i++ {
			c.Access(uint32(i*64) % (16 << 20))
		}
	})
	b.Run("same-line", func(b *testing.B) {
		c := NewL2Cache(8 << 20)
		for i := 0; i < b.N; i++ {
			c.Access(uint32(i%(L2LineSize/4)) * 4)
		}
	})
}

// BenchmarkTranslateHit measures the MMU translation hot path alone: a
// repeated translation of one resident page, which after the first fill
// is a pure TLB hit on every iteration.
func BenchmarkTranslateHit(b *testing.B) {
	m := NewMachine(DefaultConfig())
	mpm := m.MPMs[0]
	tbl, _ := pagetable.New(nil)
	tbl.Insert(0x100_0000, pagetable.MakePTE(512, pagetable.PTEValid|pagetable.PTEWrite))
	sp := &Space{Table: tbl, ASID: 1}
	n := b.N
	e := mpm.NewExec("bench", func(e *Exec) {
		e.Space = sp
		e.Translate(0x100_0000, false) // fill
		for i := 0; i < n; i++ {
			e.Translate(0x100_0000, false)
		}
	})
	mpm.CPUs[0].Dispatch(e)
	b.ResetTimer()
	if err := m.Run(math.MaxUint64); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSimulatedMemoryAccess measures the full simulated reference
// (translate, cache model, physical memory) per host second on two
// streams: walk loads one word from each of 256 pages in turn, four
// times the TLB, so every load misses it and walks the table; hit
// alternates loads and stores over the words of one resident page, so
// every reference hits the TLB's latest entry and, seven in eight, the
// L2's latest line.
func BenchmarkSimulatedMemoryAccess(b *testing.B) {
	b.Run("walk", func(b *testing.B) {
		runAccessBench(b, 256, func(e *Exec, n int) {
			for i := 0; i < n; i++ {
				e.Load32(0x100_0000 + uint32(i%256)<<PageShift)
			}
		})
	})
	b.Run("hit", func(b *testing.B) {
		runAccessBench(b, 1, func(e *Exec, n int) {
			for i := 0; i < n; i++ {
				va := 0x100_0000 + uint32(i%(PageSize/4))*4
				if i&1 == 0 {
					e.Load32(va)
				} else {
					e.Store32(va, uint32(i))
				}
			}
		})
	})
}

// runAccessBench times body(e, b.N) in a context whose space maps pages
// writable pages from 0x100_0000.
func runAccessBench(b *testing.B, pages uint32, body func(e *Exec, n int)) {
	m := NewMachine(DefaultConfig())
	defer m.Close()
	mpm := m.MPMs[0]
	tbl, _ := pagetable.New(nil)
	for i := uint32(0); i < pages; i++ {
		tbl.Insert(0x100_0000+i<<PageShift, pagetable.MakePTE(512+i, pagetable.PTEValid|pagetable.PTEWrite))
	}
	sp := &Space{Table: tbl, ASID: 1}
	n := b.N
	e := mpm.NewExec("bench", func(e *Exec) {
		e.Space = sp
		body(e, n)
	})
	mpm.CPUs[0].Dispatch(e)
	b.ResetTimer()
	if err := m.Run(math.MaxUint64); err != nil {
		b.Fatal(err)
	}
}
