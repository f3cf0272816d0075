//go:build race

package bench

// raceEnabled reports whether the race detector is compiled in, so
// nanosecond-margin timing guards can skip: race instrumentation turns
// the striped atomic adds being priced into function calls, which says
// nothing about the production-build budget. Allocation guards skip too:
// under the race detector sync.Pool drops a share of its Puts on
// purpose, so pooled buffers reallocate.
const raceEnabled = true
