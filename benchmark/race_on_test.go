//go:build race

package main

// raceDetector reports whether the tests were built with -race, under
// which everything runs several times slower and time limits are void.
const raceDetector = true
