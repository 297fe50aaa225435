package distrib

import (
	"encoding/json"
	"errors"
	"io"
	"log"
	"net"
	"time"
)

// MeshTimeout bounds how long a process waits for the full peer mesh.
const MeshTimeout = 30 * time.Second

// ViewHost runs the conversations a worker's control connections carry:
// sharded sessions — long-lived live views and one-shot jobs alike. open
// is the raw opening message, and dec/enc are the connection's codec pair.
// ServeView owns the connection until the session ends (normally or with
// an error); afterwards the control loop waits for the next opening
// message on the same connection. The interface is stdlib-shaped on
// purpose, so the live tier can implement it without this package knowing
// its message schema.
type ViewHost interface {
	ServeView(open json.RawMessage, dec *json.Decoder, enc *json.Encoder) error
}

// ServeWorkerOpts configures a worker process.
type ServeWorkerOpts struct {
	// Log receives connection-level failures (a lost coordinator is
	// normal at shutdown, so they are logged, not fatal).
	Log *log.Logger
	// Views hosts the sessions (live.NewWorkerHost).
	Views ViewHost
}

// ServeWorkerWith accepts coordinator control connections on ln and hands
// every conversation on them to opts.Views. One control connection carries
// any number of sequential sessions; it returns when the listener closes.
func ServeWorkerWith(ln net.Listener, opts ServeWorkerOpts) error {
	if opts.Views == nil {
		return errors.New("distrib: worker without a ViewHost")
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go func() {
			if err := serveControl(conn, opts.Views); err != nil && !errors.Is(err, io.EOF) && opts.Log != nil {
				opts.Log.Printf("distrib: worker control connection: %v", err)
			}
		}()
	}
}

// serveControl runs one coordinator's control connection to completion:
// each message that arrives between sessions opens the next one. The host
// decodes it — this package does not know the schema.
func serveControl(conn net.Conn, host ViewHost) error {
	defer conn.Close()
	dec := json.NewDecoder(conn)
	enc := json.NewEncoder(conn)
	for {
		var open json.RawMessage
		if err := dec.Decode(&open); err != nil {
			return err
		}
		if err := host.ServeView(open, dec, enc); err != nil {
			return err
		}
	}
}
