package distrib

import (
	"net"
	"strings"
	"testing"
	"time"
)

// TestDialWorkerGivesUp pins the bound: a worker that never appears fails
// the dial after the fixed attempt budget, not after the caller's whole
// timeout per attempt has elapsed serially forever.
func TestDialWorkerGivesUp(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	start := time.Now()
	_, err = DialWorker(addr, 2*time.Second)
	if err == nil {
		t.Fatal("dial to a dead address succeeded")
	}
	if !strings.Contains(err.Error(), "attempts") {
		t.Fatalf("error does not report the attempt budget: %v", err)
	}
	// 5 sleeps of 50,100,200,400,800ms ≈ 1.55s plus refused dials.
	if el := time.Since(start); el > 10*time.Second {
		t.Fatalf("dial retried for %v, backoff is unbounded", el)
	}
}

// TestServeWorkerNeedsHost: a worker has nothing to serve without a
// ViewHost, and says so instead of accepting connections it would drop.
func TestServeWorkerNeedsHost(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if err := ServeWorkerWith(ln, ServeWorkerOpts{}); err == nil {
		t.Fatal("worker without a ViewHost started serving")
	}
}
