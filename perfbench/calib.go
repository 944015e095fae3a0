package main

import (
	"time"

	"compass/internal/memory"
)

// latest is a read chooser that always takes the newest readable message,
// like the memory package's own benchmarks.
type latest struct{}

func (latest) Choose(n int) int { return n - 1 }

// opBatch is the number of operations timed together; write-like ops run
// on a fresh location per batch so its history never outgrows one batch.
const opBatch = 1024

// memoryOps times single ORC11 steps on the public memory API, with the
// operand shapes of BenchmarkReleaseWrite, BenchmarkAcquireRead,
// BenchmarkCAS and BenchmarkFenceSC in internal/memory. Each op runs for
// about per; the result is the median nanoseconds per op over batches.
func memoryOps(per time.Duration) map[string]float64 {
	type op struct {
		name  string
		setup func() func(i int)
	}
	ops := []op{
		{"write_rel", func() func(int) {
			m := memory.New()
			tv := memory.NewThreadView(0)
			l := m.Alloc(tv, "x", 0)
			return func(i int) { _ = m.Write(tv, l, int64(i), memory.Rel) }
		}},
		{"read_acq", func() func(int) {
			m := memory.New()
			tv := memory.NewThreadView(0)
			l := m.Alloc(tv, "x", 0)
			for i := 0; i < 64; i++ {
				_ = m.Write(tv, l, int64(i), memory.Rel)
			}
			rd := tv.Fork(1)
			return func(int) { _, _ = m.Read(rd, l, memory.Acq, latest{}) }
		}},
		{"cas", func() func(int) {
			m := memory.New()
			tv := memory.NewThreadView(0)
			l := m.Alloc(tv, "x", 0)
			return func(i int) { m.CAS(tv, l, int64(i), int64(i+1), memory.Acq, memory.Rel) }
		}},
		{"fence_sc", func() func(int) {
			m := memory.New()
			tv := memory.NewThreadView(0)
			_ = m.Alloc(tv, "x", 0)
			return func(int) { m.FenceSC(tv) }
		}},
	}
	out := map[string]float64{}
	for _, o := range ops {
		var perOp []float64
		for end := time.Now().Add(per); time.Now().Before(end); {
			step := o.setup()
			start := time.Now()
			for i := 0; i < opBatch; i++ {
				step(i)
			}
			perOp = append(perOp, float64(time.Since(start).Nanoseconds())/opBatch)
		}
		out[o.name] = median(perOp)
	}
	return out
}
