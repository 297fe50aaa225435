// Package lib has one export a program uses and one only its test uses,
// and the method and field shapes the member passes must tell apart.
package lib

// Used has a non-test caller.
func Used() int { return 1 }

// TestOnly is called only from lib_test.go.
func TestOnly() int { return 2 }

// Config is a program's options.
type Config struct {
	// Knob is read by Run but set only in lib_test.go: a knob no program
	// sets.
	Knob int
}

// Run reads c.Knob.
func Run(c Config) int { return c.Knob }

// Probe is called only from lib_test.go.
func (c Config) Probe() int { return c.Knob }

// Shower is an interface the program calls through.
type Shower interface{ Show() string }

// Print calls s.Show.
func Print(s Shower) string { return s.Show() }

// Box's Show is never called by name: Print reaches it through Shower.
type Box struct{}

// Show satisfies Shower.
func (Box) Show() string { return "box" }

// Pair's fields are set only by an unkeyed literal in app.
type Pair struct{ A, B int }

// Sum reads both fields.
func (p Pair) Sum() int { return p.A + p.B }
