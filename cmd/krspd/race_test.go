//go:build race

package main

// raceEnabled reports a -race build, whose instrumentation slows the
// request path too much for wall-clock latency bounds to hold.
const raceEnabled = true
