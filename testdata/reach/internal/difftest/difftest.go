// Package difftest is the fixture's test-support package.
package difftest

// Helper is exempt: the test-support package's exports serve tests.
func Helper() int { return 3 }
