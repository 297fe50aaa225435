package live

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"runtime/pprof"
	"slices"

	"repro/internal/distrib"
	"repro/internal/obs"
	"repro/internal/record"
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

// serveVerb executes one coordinator verb on this host's core and returns
// the reply; an error ends the session. A session opens with view_open,
// meshes with view_start right after it, and takes every other verb from
// then on. The verb runs under the profiler labels {layer=live,
// op=<verb>} — the workers' share of a control round — which come off
// again afterwards.
func (w *workerSession) serveVerb(req shardMsg) (shardMsg, error) {
	if (req.Kind == viewOpen) != (w.served == 0) || (req.Kind == viewStart) != (w.served == 1) {
		return shardMsg{}, fmt.Errorf("live: unexpected %s as verb %d of a session", req.Kind, w.served+1)
	}
	w.served++
	labels := pprof.WithLabels(context.Background(), pprof.Labels("layer", "live", "op", string(req.Kind)))
	pprof.SetGoroutineLabels(labels)
	defer pprof.SetGoroutineLabels(context.Background())
	core := w.core
	var payload []record.Record
	switch req.Kind {
	case viewLoad, viewReplan, viewSeed:
		var err error
		if payload, err = unpackRecords(req.Frames); err != nil {
			return shardMsg{}, err
		}
	}
	switch req.Kind {
	case viewOpen:
		return w.open(req)
	case viewStart:
		return shardMsg{}, core.tr.ConnectPeers(req.DataAddrs, distrib.MeshTimeout)
	case viewLoad:
		core.sol.Init(payload)
		return shardMsg{}, nil
	case viewApply:
		muts, err := decodeMutations(req.Frames)
		if err == nil {
			err = core.applyBatch(muts)
		}
		reply := shardMsg{Count: len(core.removed), Full: core.removes(), Digest: core.digest}
		if core.removes() {
			// The repair cutoff's share, read before the verdict touches
			// the solution.
			reply.Records = core.survivors()
		}
		return reply, err
	case viewReplan:
		_, err := core.settle(req.Full, recordKeys(payload))
		return shardMsg{Digest: core.digest}, err
	case viewGather:
		// Own-keyed candidates stay here (buffered for the seed verb);
		// only remote-keyed ones travel, with Count telling the
		// coordinator how many were retained so it can detect a
		// globally empty round.
		outbound := slices.Concat(core.gatherRound(req.Round)...)
		return shardMsg{Frames: packRecords(outbound), Count: len(core.pending)}, nil
	case viewSeed:
		workset, improving := core.seedRound(payload)
		core.fx.SeedWorkset(workset)
		return shardMsg{Count: improving}, nil
	case viewStep:
		if req.Epoch != core.epoch {
			return shardMsg{}, fmt.Errorf("live: released for a superstep at plan epoch %d while at %d", req.Epoch, core.epoch)
		}
		count, err := core.fx.StepOnce(labels)
		return shardMsg{Count: count, Epoch: core.epoch}, err
	case viewEpoch:
		// Coordinated plan swap: re-plan for the coordinator's global
		// workset estimate, swap the session, and answer with the new
		// digest so the coordinator can verify the mesh stayed plan-agreed.
		phys, err := core.fx.ApplyEpoch(int64(req.Count))
		if err != nil {
			return shardMsg{}, err
		}
		core.digest, core.epoch = phys.Fingerprint(), req.Epoch
		return shardMsg{Digest: core.digest}, nil
	case viewQuery:
		var hit []record.Record
		if r, ok := core.lookup(req.Key); ok {
			hit = append(hit, r)
		}
		return shardMsg{Frames: packRecords(hit)}, nil
	case viewCollect:
		var spans []obs.Span
		if w.h.reg != nil && core.cfg.TraceID != 0 {
			spans = w.h.reg.Trace().SpansFor(core.cfg.TraceID)
		}
		frames := core.collect()
		if err := core.sol.Err(); err != nil {
			return shardMsg{}, err
		}
		return shardMsg{Frames: frames, Spans: spans}, nil
	case viewStats:
		return shardMsg{Count: core.hostedRecords(), Bytes: core.sol.Bytes()}, nil
	}
	return shardMsg{}, fmt.Errorf("live: unknown verb %q", req.Kind)
}

// open builds this host's session share from view_open: maintainer,
// graph replica, config, and the listening shardCore — with its share of
// the cold workset seeded, or empty and awaiting view_load frames when the
// coordinator is recovering.
func (w *workerSession) open(msg shardMsg) (shardMsg, error) {
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
	if w.core, _, err = newShardCore(m, specFor(ss, msg.HostID, w.h.reg), gs, !msg.Full, &ViewStats{}); err != nil {
		return shardMsg{}, err
	}
	return shardMsg{DataAddr: w.core.dataAddr, Digest: w.core.digest}, nil
}
