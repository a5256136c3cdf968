//go:build !race

package gen

// raceDetectorOn reports whether the race detector is active. Under it
// TestTopicDrawMatchesReference leaves out the paper-size instances, which
// take seconds each with the detector on.
const raceDetectorOn = false
