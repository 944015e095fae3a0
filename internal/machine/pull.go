//go:build !race

package machine

import (
	"iter"

	"compass/internal/memory"
)

// pull turns a thread body into a coroutine (see controller.start). Race
// detector builds substitute a goroutine handoff; see pull_race.go.
var pull = iter.Pull[memory.Access]
