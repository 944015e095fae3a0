// Package runnerctor is the golden corpus for the runnerctor analyzer.
package runnerctor

import "compass/internal/machine"

func direct(budget int) *machine.Runner {
	return &machine.Runner{Budget: budget} // want `machine.Runner constructed directly`
}

func directValue() machine.Runner {
	return machine.Runner{Trace: true} // want `machine.Runner constructed directly`
}

// build is a sanctioned constructor in the style of check.Options.Runner.
//
//compass:runner-ctor
func build(budget int, trace bool) *machine.Runner {
	return &machine.Runner{Budget: budget, Trace: trace} // ok: sanctioned constructor
}

func viaConstructor(budget int) *machine.Runner {
	return build(budget, false) // ok: goes through the constructor
}

func directOpts(maxRuns int) machine.ExploreOpts {
	return machine.ExploreOpts{MaxRuns: maxRuns} // want `machine.ExploreOpts constructed directly`
}

func directOptsPOR() machine.ExploreOpts {
	return machine.ExploreOpts{POR: machine.PORSource} // want `machine.ExploreOpts constructed directly`
}

// buildOpts is a sanctioned constructor in the style of
// check.Options.ExploreOpts.
//
//compass:explore-ctor
func buildOpts(maxRuns int, por machine.PORMode) machine.ExploreOpts {
	return machine.ExploreOpts{MaxRuns: maxRuns, POR: por} // ok: sanctioned constructor
}

func viaOptsConstructor(maxRuns int) machine.ExploreOpts {
	return buildOpts(maxRuns, machine.PORSource) // ok: goes through the constructor
}

// runnerCtorDoesNotSanctionOpts mixes the two: a runner-ctor directive
// must not bless ExploreOpts literals.
//
//compass:runner-ctor
func runnerCtorDoesNotSanctionOpts() machine.ExploreOpts {
	return machine.ExploreOpts{Workers: 4} // want `machine.ExploreOpts constructed directly`
}
