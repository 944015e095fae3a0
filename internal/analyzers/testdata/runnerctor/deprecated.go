package runnerctor

import (
	"compass/internal/check"
	"compass/internal/litmus"
)

func callsDeprecatedExhaustive(build func() check.Checked) *check.Report {
	return check.Exhaustive("x", build, 100, 0) // want `call to deprecated check.Exhaustive`
}

func callsDeprecatedExhaustiveOpt(build func() check.Checked) *check.Report {
	return check.ExhaustiveOpt("x", build, check.Options{}) // want `call to deprecated check.ExhaustiveOpt`
}

func callsConsolidatedRun(build func() check.Checked) *check.Report {
	return check.Run("x", build, check.Options{Mode: check.ModeExhaustive}) // ok: consolidated entry point
}

func callsDeprecatedRunWorkers(t litmus.Test) *litmus.Result {
	return litmus.RunWorkers(t, 100, 2) // want `call to deprecated litmus.RunWorkers`
}

func callsConsolidatedLitmusRun(t litmus.Test) *litmus.Result {
	return litmus.Run(t, 100, litmus.WithWorkers(2)) // ok: consolidated entry point
}
