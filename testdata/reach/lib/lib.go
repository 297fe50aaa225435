// Package lib has one export a program uses and one only its test uses,
// and the method and field shapes the member passes must tell apart.
package lib

import (
	"encoding/json"

	"fixture/internal/metrics"
)

// Used has a non-test caller.
func Used() int { return 1 }

// TestOnly is called only from lib_test.go.
func TestOnly() int { return 2 }

// Config is a program's options.
type Config struct {
	// Knob is read by Run but set only in lib_test.go: a knob no program
	// sets.
	Knob int
	// Batch makes a round trip through wireSpec and back, which no program
	// starts: a copy of an unset field sets neither end.
	Batch int
	// Limit is set only by normalized's default fill, which sets nothing.
	Limit int
	// Size is copied from Request.Size, input from outside the process.
	Size int
}

// wireSpec is Config on a wire: JSON-tagged, but written by a program, so
// judged by that write.
type wireSpec struct {
	Batch int `json:"batch"`
}

func toWire(c Config) wireSpec { return wireSpec{Batch: c.Batch} }

func fromWire(s wireSpec) Config { return Config{Batch: s.Batch} }

// normalized fills Limit's default.
func (c Config) normalized() Config {
	if c.Limit <= 0 {
		c.Limit = 10
	}
	return c
}

// Run reads c's knobs, Batch after its round trip.
func Run(c Config) int {
	c = c.normalized()
	return c.Knob + fromWire(toWire(c)).Batch + c.Limit + c.Size
}

// Request is decoded from JSON; no program writes it.
type Request struct {
	Size int `json:"size"`
}

// Decode builds a Config from a JSON request.
func Decode(data []byte) (Config, error) {
	var r Request
	err := json.Unmarshal(data, &r)
	return Config{Size: r.Size}, err
}

// Row's field is copied from an allowlisted source.
type Row struct{ Steps int }

// RowOf copies the snapshot's field through a conversion, which the copy
// rule looks through.
func RowOf(s metrics.Snapshot) Row { return Row{Steps: int(s.Steps)} }

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
