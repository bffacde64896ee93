//go:build !race

package snapshot

// raceEnabled reports a -race build, under which sync.Pool drops a share
// of what is put back, so a pooled path allocates at random.
const raceEnabled = false
