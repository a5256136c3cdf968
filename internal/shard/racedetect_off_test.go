//go:build !race

package shard

// raceDetectorOn reports whether the race detector is active. The race
// runtime deliberately drops a fraction of sync.Pool puts to expose
// lifecycle races, so allocation ceilings that rest on pooling only hold
// without it.
const raceDetectorOn = false
