package litmus

import (
	"compass/internal/machine"
	"compass/internal/memory"
	"compass/internal/view"
)

// FootprintSuite returns exploration workloads (NOT part of Suite — the
// golden corpus pins that) with footprints the suite lacks: read-only
// configuration, thread-exclusive scratch state (non-atomic counters
// included), and a shared flag that keeps the exploration branching. The
// POR and plan equivalence tests run them alongside the suite.
//
//compass:plan-suite
func FootprintSuite() []Test {
	return []Test{
		{
			Name: "FP-counters",
			Note: "read-only config + per-thread na counters + one shared rlx flag",
			Build: func() machine.Program {
				var cfg, c1, c2, flag view.Loc
				return machine.Program{
					Setup: func(th *machine.Thread) {
						cfg = th.Alloc("cfg", 7)
						c1 = th.Alloc("c1", 0)
						c2 = th.Alloc("c2", 0)
						flag = th.Alloc("flag", 0)
					},
					Workers: []func(*machine.Thread){
						func(th *machine.Thread) {
							n := th.Read(cfg, memory.Rlx)
							for i := int64(0); i < n%3; i++ {
								th.Write(c1, th.Read(c1, memory.NA)+1, memory.NA)
							}
							th.Write(flag, 1, memory.Rel)
							th.Report("c1", th.Read(c1, memory.NA))
						},
						func(th *machine.Thread) {
							th.Report("f", th.Read(flag, memory.Acq))
							th.Write(c2, th.Read(cfg, memory.Rlx), memory.NA)
							th.Report("c2", th.Read(c2, memory.NA))
						},
					},
				}
			},
		},
		{
			Name: "FP-mixed",
			Note: "exclusive atomics alongside a genuinely contended location",
			Build: func() machine.Program {
				var mine, shared view.Loc
				return machine.Program{
					Setup: func(th *machine.Thread) {
						mine = th.Alloc("mine", 0)
						shared = th.Alloc("shared", 0)
					},
					Workers: []func(*machine.Thread){
						func(th *machine.Thread) {
							th.Write(mine, 1, memory.Rlx)
							th.Write(shared, th.Read(mine, memory.Rlx), memory.Rlx)
						},
						func(th *machine.Thread) {
							th.Report("s", th.Read(shared, memory.Rlx))
						},
					},
					Final: func(th *machine.Thread) {
						th.Report("final", th.Read(shared, memory.Rlx))
					},
				}
			},
		},
	}
}
