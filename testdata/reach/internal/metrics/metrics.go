// Package metrics is the fixture's counter snapshot: reflection fills
// Snapshot's fields, so the allowlist exempts them.
package metrics

import "reflect"

// Snapshot is a point-in-time copy of the counters.
type Snapshot struct{ Steps int }

// Take fills a snapshot by reflection.
func Take() Snapshot {
	var s Snapshot
	reflect.ValueOf(&s).Elem().Field(0).SetInt(1)
	return s
}
