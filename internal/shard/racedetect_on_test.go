//go:build race

package shard

// raceDetectorOn reports whether the race detector is active (see the
// !race twin for why allocation ceilings key off it).
const raceDetectorOn = true
