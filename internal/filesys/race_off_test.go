//go:build !race

package filesys

const raceEnabled = false
