//go:build race

package main

// raceEnabled: the race detector slows operations enough that a 1 s
// window may hold no operation of some kind.
const raceEnabled = true
