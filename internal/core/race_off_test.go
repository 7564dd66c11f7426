//go:build !race

package core_test

// raceEnabled gates assertions the race detector's runtime invalidates
// (sync.Pool drops a share of Puts under -race, so bytes allocated rise).
const raceEnabled = false
