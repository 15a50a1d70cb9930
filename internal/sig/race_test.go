//go:build race

package sig

// raceEnabled reports a build with the race detector, under which
// sync.Pool drops some of what it is given, so pooled paths allocate.
const raceEnabled = true
