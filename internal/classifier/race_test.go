//go:build race

package classifier

// raceEnabled reports a -race build, where sync.Pool drops a share of
// what it is given on purpose, so pooled scratch allocates again.
const raceEnabled = true
