package lib

import "testing"

func TestTestOnly(t *testing.T) {
	if TestOnly() != 2 {
		t.Fatal("TestOnly")
	}
	if c := (Config{Knob: 3}); c.Probe() != 3 {
		t.Fatal("Probe")
	}
}
