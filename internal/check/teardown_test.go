package check_test

import (
	"runtime"
	"testing"
	"time"

	"compass/internal/check"
	"compass/internal/machine"
	"compass/internal/queue"
	"compass/internal/spec"
)

// settled waits for the goroutine count to come back to base: a harness
// worker between its WaitGroup.Done and its exit is still counted for a
// moment, while a leaked thread coroutine is counted for good.
func settled(t *testing.T, base int, what string) {
	t.Helper()
	for i := 0; ; i++ {
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if i == 100 {
			t.Fatalf("%s: %d goroutines after it, %d before", what, n, base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRandomRunLeavesNoGoroutines: check.Run in random mode runs each
// worker's executions on a kept machine and closes it when the worker
// ends, so no thread coroutine outlives Run, at one worker or two,
// whether the run passes or stops early at MaxFailures. A body's panic
// surfaces from a one-worker Run, and the deferred Close stops the
// coroutines on the way out.
func TestRandomRunLeavesNoGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	base := runtime.NumGoroutine()
	ms := check.QueueMixed(func(th *machine.Thread) queue.Queue { return queue.NewMS(th, "q") }, spec.LevelHB, 2, 2, 2, 3)
	hw := check.QueueMixed(func(th *machine.Thread) queue.Queue { return queue.NewHW(th, "q", 64) }, spec.LevelSC, 2, 3, 2, 4)
	for _, workers := range []int{1, 2} {
		rep := check.Run("teardown/ms", ms, check.Options{Executions: 60, Refine: true, Workers: workers})
		if !rep.Passed() || rep.OK == 0 {
			t.Fatalf("workers=%d: %s", workers, rep)
		}
		settled(t, base, "passing random run")
		rep = check.Run("teardown/hw", hw, check.Options{Executions: 400, StaleBias: 0.7, MaxFailures: 2, Workers: workers})
		if len(rep.Failures) != 2 || rep.Executions == 400 {
			t.Fatalf("workers=%d: want an early stop at 2 failures, got %s", workers, rep)
		}
		settled(t, base, "random run stopped early")
	}

	builds := 0
	boom := func() check.Checked {
		builds++
		n := builds
		return check.Checked{Prog: machine.Program{Workers: []func(*machine.Thread){
			func(th *machine.Thread) {
				for {
					th.Yield()
				}
			},
			func(th *machine.Thread) {
				th.Yield()
				if n == 3 {
					panic("check boom")
				}
			},
		}}}
	}
	got := func() (p any) {
		defer func() { p = recover() }()
		check.Run("teardown/panic", boom, check.Options{Executions: 10, Budget: 50, Workers: 1})
		return nil
	}()
	if got != "check boom" || builds != 3 {
		t.Fatalf("Run panicked with %v at execution %d, want check boom at execution 3", got, builds)
	}
	settled(t, base, "random run that panicked")
}

// TestWorkerPanicsSurface: a panic in a thread body on a worker
// goroutine reaches the caller at Workers: 2 as it does at one worker —
// through check.Run in random mode (its own worker pool) and in
// exhaustive mode, and through machine.ExploreParallel directly — after
// every worker has stopped and closed its kept machine, so no goroutine
// outlives the call.
func TestWorkerPanicsSurface(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	base := runtime.NumGoroutine()
	prog := func() machine.Program {
		return machine.Program{Workers: []func(*machine.Thread){
			func(th *machine.Thread) {
				th.Yield()
				panic("worker boom")
			},
		}}
	}
	build := func() check.Checked { return check.Checked{Prog: prog()} }
	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"random", func() {
			check.Run("panic/random", build, check.Options{Executions: 20, Workers: 2})
		}},
		{"exhaustive", func() {
			check.Run("panic/exhaustive", build, check.Options{Mode: check.ModeExhaustive, Workers: 2})
		}},
		{"ExploreParallel", func() {
			machine.ExploreParallel(machine.ExploreOpts{Workers: 2}, func() (func() machine.Program, func(*machine.Result) bool) {
				return prog, func(*machine.Result) bool { return true }
			})
		}},
	} {
		got := func() (p any) {
			defer func() { p = recover() }()
			tc.run()
			return nil
		}()
		if got != "worker boom" {
			t.Errorf("%s: recovered %v, want the body's panic", tc.name, got)
		}
		settled(t, base, tc.name+" run that panicked")
	}
}
