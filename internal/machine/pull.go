//go:build !race

package machine

import "iter"

// pull turns a thread body into a coroutine (see controller.start). Race
// detector builds substitute a goroutine handoff; see pull_race.go.
var pull = iter.Pull[struct{}]
