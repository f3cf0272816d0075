//go:build race

package filesys

// raceEnabled reports whether the race detector is compiled in. The
// allocation guards skip under it: sync.Pool drops a share of its Puts
// on purpose there, so pooled buffers reallocate.
const raceEnabled = true
