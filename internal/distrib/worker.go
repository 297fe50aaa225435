package distrib

import (
	"errors"
	"io"
	"log"
	"net"
	"time"
)

// MeshTimeout bounds how long a process waits for the full peer mesh.
const MeshTimeout = 30 * time.Second

// ViewHost runs the session a worker's control connection carries: a
// sharded session — a long-lived live view or a one-shot job alike. A
// connection carries exactly one session: ServeView owns conn until the
// session ends (the coordinator hung up, which reads as io.EOF, or with an
// error), and conn closes when it returns. The connection's framing and
// message schema are the host's (internal/live: length-prefixed JSON
// frames, twelve verbs), so this package never decodes a control message.
type ViewHost interface {
	ServeView(conn net.Conn) error
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
// each one to opts.Views; one control connection carries one session. It
// returns when the listener closes.
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
			defer conn.Close()
			if err := opts.Views.ServeView(conn); err != nil && !errors.Is(err, io.EOF) && opts.Log != nil {
				opts.Log.Printf("distrib: worker control connection: %v", err)
			}
		}()
	}
}
