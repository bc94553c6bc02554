//go:build race

package server

// raceEnabled reports a -race build, whose sync.Pool drops a random share
// of the objects put back, so allocation counts are not deterministic.
const raceEnabled = true
