//go:build race

package tree

// raceDetector reports whether the tests run under the race detector,
// which slows the build about tenfold.
const raceDetector = true
