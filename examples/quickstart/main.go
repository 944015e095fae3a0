// Command quickstart demonstrates the COMPASS workflow end to end: build a
// relaxed queue on the simulated ORC11 memory, run a small concurrent
// program against it, print the resulting event graph, and check it
// against the LAT_hb^abs queue spec.
package main

import (
	"flag"
	"fmt"

	"compass"
)

func main() {
	seed := flag.Int64("seed", 7, "scheduler seed (executions replay deterministically)")
	flag.Parse()

	var q compass.Queue
	prog := compass.Program{
		Name: "quickstart",
		Setup: func(th *compass.Thread) {
			q = compass.NewMSQueue(th, "q")
		},
		Workers: []func(*compass.Thread){
			func(th *compass.Thread) {
				q.Enqueue(th, 41)
				q.Enqueue(th, 42)
			},
			func(th *compass.Thread) {
				for i := 0; i < 3; i++ {
					if v, ok := q.TryDequeue(th); ok {
						th.Report(fmt.Sprintf("deq%d", i), v)
					}
				}
			},
		},
	}

	res := compass.CheckOptions{}.Runner(false).Run(prog, compass.NewRandomStrategy(*seed))
	fmt.Printf("execution status: %v (%d machine steps)\n", res.Status, res.Steps)
	for _, rep := range res.Reports() {
		fmt.Printf("  %s = %d\n", rep.Name, rep.Value)
	}

	g := q.Recorder().Graph()
	fmt.Println("\nevent graph:")
	fmt.Println(g)

	for _, lvl := range compass.SpecLevels {
		r := compass.CheckQueue(g, lvl)
		verdict := "PASS"
		if !r.OK() {
			verdict = "FAIL"
		}
		fmt.Printf("\nspec %-12v %s\n", lvl, verdict)
		for _, v := range r.Violations {
			fmt.Printf("  %s\n", v)
		}
	}
}
