//go:build race

package gen

// raceDetectorOn reports whether the race detector is active (see the
// !race twin for what keys off it).
const raceDetectorOn = true
