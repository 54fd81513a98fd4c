//go:build race

package experiments

// raceEnabled reports that the race detector is instrumenting this
// build. Some experiments still assert wide timing orderings (integers
// beat string triples, dali beats eos) that the detector's per-access
// instrumentation can invert, so the suite skips itself under -race;
// the behaviors the experiments exercise are covered by the per-package
// correctness tests, which do run under -race.
const raceEnabled = true
