//go:build race

package main

// raceEnabled reports that the race detector instruments this build. The
// smoke test runs four timed workloads and subprocesses, which the
// detector slows several-fold, so it skips itself; the unit tests still
// run.
const raceEnabled = true
