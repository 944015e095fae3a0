// Package zerovalue is the golden corpus for the zerovalue analyzer.
package zerovalue

import "compass/internal/check"

// localConfig mirrors the Seed/StaleBias zero-value trap in a local
// type: the field names alone mark the hazard.
type localConfig struct {
	Seed      int64
	StaleBias float64
}

func literals() []check.Options {
	return []check.Options{
		{Executions: 100, Seed: 0},                   // want `Seed: 0 selects the default`
		{Executions: 100, StaleBias: 0},              // want `StaleBias: 0 selects the default`
		{Executions: 100, Seed: check.SeedZero},      // ok: sentinel requests a true zero
		{Executions: 100, StaleBias: check.BiasZero}, // ok: sentinel
		{Executions: 100, Seed: 7, StaleBias: 0.5},   // ok: nonzero literals
		{Executions: 100},                            // ok: field omitted on purpose
		{Mode: check.ModeExhaustive, POR: check.PORSource}, // ok: Mode/POR zero values are honest (ModeRandom, reduction off), no sentinel needed
	}
}

func localLiteral() localConfig {
	return localConfig{Seed: 0} // want `Seed: 0 selects the default`
}

func assignments(o *check.Options) {
	o.Seed = 0              // want `Seed: 0 selects the default`
	o.StaleBias = 0         // want `StaleBias: 0 selects the default`
	o.Seed = check.SeedZero // ok: sentinel
	o.Seed = 42             // ok: nonzero
}

// pinTrap deliberately exercises the zero-value trap (the way
// TestOptionSentinels does) and opts out of the check.
//
//compass:zerovalue-ok
func pinTrap() check.Options {
	return check.Options{Seed: 0} // ok: function opted out
}
