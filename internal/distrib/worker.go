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

// ViewHost runs the session a worker's control connection carries: a
// sharded session — a long-lived live view or a one-shot job alike. open
// is the raw opening message, and dec/enc are the connection's codec pair.
// A connection carries exactly one session: ServeView owns the connection
// until the session ends (the coordinator hung up, which reads as io.EOF,
// or with an error), and the connection closes when it returns. The
// interface is stdlib-shaped on purpose, so the live tier can implement
// it without this package knowing its message schema.
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
// each one's session to opts.Views; one control connection carries one
// session. It returns when the listener closes.
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

// serveControl runs one coordinator's control connection: its first
// message opens the session, and the connection closes when the session
// ends. The host decodes the message — this package does not know the
// schema.
func serveControl(conn net.Conn, host ViewHost) error {
	defer conn.Close()
	dec := json.NewDecoder(conn)
	var open json.RawMessage
	if err := dec.Decode(&open); err != nil {
		return err
	}
	return host.ServeView(open, dec, json.NewEncoder(conn))
}
