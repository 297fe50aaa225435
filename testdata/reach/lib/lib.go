// Package lib has one export a program uses and one only its test uses.
package lib

// Used has a non-test caller.
func Used() int { return 1 }

// TestOnly is called only from lib_test.go.
func TestOnly() int { return 2 }
