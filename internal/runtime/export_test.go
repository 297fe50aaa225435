package runtime

// ForceLane pins the lane every transport-less session takes until the
// returned restore function runs: pick is asked once per superstep and
// returns true for the serial lane. Tests only.
func ForceLane(pick func() (serial bool)) (restore func()) {
	laneOverride = pick
	return func() { laneOverride = nil }
}
