package iterative

import (
	"strings"
	"testing"
)

// TestConfigRejectsNegativeKnobs pins the normalize() contract at every
// public entry point: a negative knob is a caller bug and must surface as
// an error immediately — not be silently clamped — and the same Config
// must be rejected identically no matter which engine it enters through.
func TestConfigRejectsNegativeKnobs(t *testing.T) {
	bulk, initial := doubler()
	bulk.FixedIterations = 1
	inc, s0, w0 := incrSpec(8)
	phys, err := PlanIncremental(inc, Config{}, 0)
	if err != nil {
		t.Fatal(err)
	}

	bad := []struct {
		name string
		cfg  Config
		want string
	}{
		{"parallelism", Config{Parallelism: -1}, "negative Parallelism"},
		{"budget", Config{SolutionMemoryBudget: -1}, "negative SolutionMemoryBudget"},
		{"hosts", Config{Hosts: -2}, "negative Hosts"},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			entries := []struct {
				name string
				run  func(cfg Config) error
			}{
				{"RunBulk", func(cfg Config) error {
					_, err := RunBulk(bulk, initial, cfg)
					return err
				}},
				{"RunIncremental", func(cfg Config) error {
					_, err := RunIncremental(inc, s0, w0, cfg)
					return err
				}},
				{"RunMicrostep", func(cfg Config) error {
					_, err := RunMicrostep(inc, s0, w0, cfg)
					return err
				}},
				{"PlanIncremental", func(cfg Config) error {
					_, err := PlanIncremental(inc, cfg, 0)
					return err
				}},
				{"OpenFixpointOn", func(cfg Config) error {
					_, err := OpenFixpointOn(inc, nil, cfg, phys, nil)
					return err
				}},
			}
			for _, e := range entries {
				err := e.run(tc.cfg)
				if err == nil {
					t.Fatalf("%s accepted %+v", e.name, tc.cfg)
				}
				if !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("%s: error %q, want it to mention %q", e.name, err, tc.want)
				}
			}
		})
	}
}

// TestConfigZeroMeansDefault pins the other half of the contract: the zero
// Config is valid everywhere and behaves exactly as Parallelism 1.
func TestConfigZeroMeansDefault(t *testing.T) {
	spec, s0, w0 := incrSpec(8)
	res, err := RunIncremental(spec, s0, w0, Config{})
	if err != nil {
		t.Fatal(err)
	}
	spec2, s02, w02 := incrSpec(8)
	explicit, err := RunIncremental(spec2, s02, w02, Config{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solution) != len(explicit.Solution) || res.Supersteps != explicit.Supersteps {
		t.Fatalf("zero config ran differently from Parallelism 1: %d/%d records, %d/%d supersteps",
			len(res.Solution), len(explicit.Solution), res.Supersteps, explicit.Supersteps)
	}
}
