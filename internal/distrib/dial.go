package distrib

import (
	"fmt"
	"net"
	"time"
)

// Worker-dial retry policy: opening a session (a one-shot job or a live
// maintenance session) retries refused connections with bounded
// exponential backoff, because "the worker process is still starting" is
// a normal deployment condition, not a failure. Once a session is
// running, failures stay fail-fast — a mid-run drop surfaces through
// TransportErrors and aborts the run, it is never retried here.
const (
	dialAttempts    = 6
	dialBackoffBase = 50 * time.Millisecond
	dialBackoffCap  = 800 * time.Millisecond
)

// DialWorker dials a worker's control address, retrying refused or
// timed-out connection attempts with bounded exponential backoff
// (dialAttempts tries, sleeps doubling from dialBackoffBase and capped at
// dialBackoffCap). The per-attempt dial timeout is timeout; the last
// error is returned when every attempt fails.
func DialWorker(addr string, timeout time.Duration) (net.Conn, error) {
	var lastErr error
	sleep := dialBackoffBase
	for attempt := 0; attempt < dialAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(sleep)
			sleep *= 2
			if sleep > dialBackoffCap {
				sleep = dialBackoffCap
			}
		}
		conn, err := net.DialTimeout("tcp", addr, timeout)
		if err == nil {
			return conn, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("distrib: dial worker %s: %d attempts: %w", addr, dialAttempts, lastErr)
}
