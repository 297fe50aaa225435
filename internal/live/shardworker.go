package live

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"runtime/pprof"

	"repro/internal/obs"
)

// WorkerHost hosts sharded sessions — live views and one-shot jobs — inside
// a `spinflow worker` process: it implements distrib.ViewHost, so the
// distrib listener hands it every control connection. One ServeView call
// runs the connection's one session — open, mesh, then coordinator-driven
// verbs until the coordinator hangs up.
type WorkerHost struct {
	reg *obs.Registry
}

// NewWorkerHost builds a view host reporting into the worker's telemetry
// registry (nil disables telemetry).
func NewWorkerHost(reg *obs.Registry) *WorkerHost { return &WorkerHost{reg: reg} }

// ServeView runs one maintenance session on conn; its handshake is the
// verb loop itself. It ends when the connection reads EOF — the
// coordinator hung up, the one way a session ends — and returns that
// io.EOF. A failed verb answers with Err and returns the error. Either way
// the session's core is torn down while the worker process keeps
// accepting — which is what lets a restarted coordinator recover onto the
// same workers. Reads between verbs have no deadline: an idle view is
// normal.
func (h *WorkerHost) ServeView(conn net.Conn) error {
	c, w := newCtlConn(conn), &workerSession{h: h}
	c.sends = toCoordinator
	defer func() {
		if w.core != nil {
			w.core.close()
		}
	}()
	for {
		req, err := c.read()
		if err != nil {
			return err
		}
		reply, err := w.serveVerb(req)
		if err != nil {
			reply = shardMsg{Err: err.Error()}
		}
		reply.Kind = req.Kind
		if werr := c.send(reply); werr != nil {
			return werr
		}
		if err != nil {
			return err
		}
	}
}

// workerSession is the worker's end of one session: the core view_open
// built (nil before it) and how many verbs it has served.
type workerSession struct {
	h      *WorkerHost
	core   *shardCore
	served int
}

// serveVerb executes one coordinator verb and returns the reply; an error
// ends the session. A session opens with view_open, which builds the core,
// meshes with view_start right after it, and takes every other verb from
// then on, each through the core's handler (serve). The verb runs under
// the profiler labels {layer=live, op=<verb>} — the workers' share of a
// control round — which come off again afterwards.
func (w *workerSession) serveVerb(req shardMsg) (shardMsg, error) {
	if (req.Kind == viewOpen) != (w.served == 0) || (req.Kind == viewStart) != (w.served == 1) {
		return shardMsg{}, fmt.Errorf("live: unexpected %s as verb %d of a session", req.Kind, w.served+1)
	}
	w.served++
	labels := pprof.WithLabels(context.Background(), pprof.Labels("layer", "live", "op", string(req.Kind)))
	pprof.SetGoroutineLabels(labels)
	defer pprof.SetGoroutineLabels(context.Background())
	if req.Kind == viewOpen {
		return w.open(req, labels)
	}
	w.core.labels = labels
	return w.core.serve(req)
}

// open builds this host's session share from view_open: maintainer,
// graph replica, config, and the listening shardCore — with its share of
// the cold workset seeded, or empty and awaiting view_load frames when the
// coordinator is recovering.
func (w *workerSession) open(msg shardMsg, labels context.Context) (shardMsg, error) {
	if msg.Spec == nil {
		return shardMsg{}, fmt.Errorf("live: %s without a spec", viewOpen)
	}
	ss := *msg.Spec
	m, err := ss.maintainer()
	if err != nil {
		return shardMsg{}, err
	}
	if msg.HostID <= 0 || msg.HostID >= ss.Hosts {
		return shardMsg{}, fmt.Errorf("live: worker host id %d outside 1..%d", msg.HostID, ss.Hosts-1)
	}
	cr, err := newCheckpointReader(bytes.NewReader(msg.Frames))
	if err != nil {
		return shardMsg{}, err
	}
	gs, err := readGraph(cr)
	if err != nil {
		return shardMsg{}, err
	}
	if w.core, _, err = newShardCore(m, specFor(ss, msg.HostID, w.h.reg), gs, !msg.Full, &ViewStats{}, labels); err != nil {
		return shardMsg{}, err
	}
	return shardMsg{DataAddr: w.core.dataAddr, Digest: w.core.digest}, nil
}
