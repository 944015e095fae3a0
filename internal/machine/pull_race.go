//go:build race

package machine

import "iter"

// pull is iter.Pull rebuilt on a goroutine and two channels, for race
// detector builds only. Go's race runtime never releases the state of a
// finished coroutine (coroutine exit skips its goroutine-end hook; about
// 5 KB per coroutine with Go 1.24), and the test suite runs millions of
// thread bodies, so `go test -race` would run out of memory. The contract
// is iter.Pull's: next runs the body to its next yield or its end and
// re-raises its panic; stop makes a suspended yield return false and
// returns once the body has exited, and a yield after that returns false
// at once. Like a coroutine's, a body's goroutine may call another
// thread's next (see controller.handoff).
//
//compass:scheduler
func pull(seq iter.Seq[struct{}]) (func() (struct{}, bool), func()) {
	type event struct {
		ok        bool // false once seq has returned
		recovered any  // the value seq panicked with
	}
	resume := make(chan bool) // true: run on; false: stop
	events := make(chan event)
	body := func() {
		var last event
		defer func() {
			last.recovered = recover()
			events <- last
		}()
		stopped := false // read and written on the body's goroutine only
		seq(func(struct{}) bool {
			if stopped {
				return false
			}
			events <- event{ok: true}
			stopped = !<-resume
			return !stopped
		})
	}
	// The goroutine starts on the first next, so every send it makes
	// finds the caller already waiting: the caller resumes only after the
	// goroutine blocks again or, at the end, has exited (on one P).
	var started, finished bool
	handoff := func(run bool) (struct{}, bool) {
		if finished || !started && !run {
			finished = true
			return struct{}{}, false
		}
		if started {
			resume <- run
		} else {
			started = true
			go body()
		}
		e := <-events
		finished = !e.ok
		if e.recovered != nil {
			panic(e.recovered)
		}
		return struct{}{}, e.ok
	}
	return func() (struct{}, bool) { return handoff(true) }, func() { handoff(false) }
}
