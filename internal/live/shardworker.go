package live

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"

	"repro/internal/distrib"
	"repro/internal/iterative"
	"repro/internal/obs"
	"repro/internal/record"
)

// WorkerHost hosts sharded sessions — live views and one-shot jobs — inside
// a `spinflow worker` process: it implements distrib.ViewHost, so the
// distrib listener hands it every conversation. One ServeView call runs
// one session — open, mesh, then coordinator-driven verbs until close —
// and the control connection returns to distrib afterwards for the next
// session.
type WorkerHost struct {
	reg *obs.Registry
}

// NewWorkerHost builds a view host reporting into the worker's telemetry
// registry (nil disables telemetry).
func NewWorkerHost(reg *obs.Registry) *WorkerHost { return &WorkerHost{reg: reg} }

// ServeView runs one maintenance session. A failed open reports
// view_error and returns nil — the connection stays usable. A mid-session
// failure reports view_error and returns the error: the connection is
// torn down (the coordinator's session is broken anyway) while the worker
// process keeps accepting — which is what lets a restarted coordinator
// recover onto the same workers.
func (h *WorkerHost) ServeView(open json.RawMessage, dec *json.Decoder, enc *json.Encoder) error {
	var msg shardMsg
	if err := json.Unmarshal(open, &msg); err != nil {
		return fmt.Errorf("live: malformed view message: %w", err)
	}
	if msg.Kind != viewOpen {
		return fmt.Errorf("live: view session must open with %q, got %q", viewOpen, msg.Kind)
	}
	if msg.Spec == nil {
		return fmt.Errorf("live: %s without a spec", viewOpen)
	}
	core, err := h.openCore(msg)
	if err != nil {
		return enc.Encode(shardMsg{Kind: viewError, Err: err.Error()})
	}
	defer core.close()
	if err := enc.Encode(shardMsg{Kind: viewReady, DataAddr: core.dataAddr, Digest: core.digest}); err != nil {
		return err
	}

	fail := func(err error) error {
		if serr := enc.Encode(shardMsg{Kind: viewError, Err: err.Error()}); serr != nil {
			return serr
		}
		return err
	}
	var start shardMsg
	if err := dec.Decode(&start); err != nil {
		return err
	}
	if start.Kind != viewStart {
		return fmt.Errorf("live: expected %q, got %q", viewStart, start.Kind)
	}
	if err := core.tr.ConnectPeers(start.DataAddrs, distrib.MeshTimeout); err != nil {
		return fail(err)
	}
	if err := enc.Encode(shardMsg{Kind: viewMeshed}); err != nil {
		return err
	}

	for {
		var req shardMsg
		if err := dec.Decode(&req); err != nil {
			return err
		}
		reply, err := h.serveVerb(core, req)
		if err != nil {
			return fail(err)
		}
		if err := enc.Encode(reply); err != nil || reply.Kind == viewClosed {
			return err
		}
	}
}

// serveVerb executes one coordinator-driven verb on this host's core and
// returns the reply; an error ends the session.
func (h *WorkerHost) serveVerb(core *shardCore, req shardMsg) (shardMsg, error) {
	var payload []record.Record
	switch req.Kind {
	case viewLoad, viewApply, viewReplan, viewSeed:
		var err error
		if payload, err = unpackRecords(req.Frames); err != nil {
			return shardMsg{}, err
		}
	}
	switch req.Kind {
	case viewLoad:
		core.sol.Init(payload)
		return shardMsg{Kind: viewLoaded}, nil
	case viewApply:
		muts, err := recordsToMutations(payload)
		if err == nil {
			err = core.applyBatch(muts)
		}
		reply := shardMsg{Kind: viewApplied, Count: len(core.removed), Full: core.removes(), Digest: core.digest}
		if core.removes() {
			// The repair cutoff's share, read before the verdict touches
			// the solution.
			reply.Records = core.survivors()
		}
		return reply, err
	case viewReplan:
		_, err := core.settle(req.Full, recordKeys(payload))
		return shardMsg{Kind: viewReplanned, Digest: core.digest}, err
	case viewGather:
		// Own-keyed candidates stay here (buffered for the seed verb);
		// only remote-keyed ones travel, with Count telling the
		// coordinator how many were retained so it can detect a
		// globally empty round.
		outbound := slices.Concat(core.gatherRound(req.Round)...)
		return shardMsg{Kind: viewCand, Frames: packRecords(outbound), Count: len(core.pending)}, nil
	case viewSeed:
		workset, improving := core.seedRound(payload)
		core.fx.SeedWorkset(workset)
		return shardMsg{Kind: viewSeeded, Count: improving}, nil
	case viewStep:
		if req.Epoch != core.epoch {
			return shardMsg{}, fmt.Errorf("live: released for a superstep at plan epoch %d while at %d", req.Epoch, core.epoch)
		}
		count, err := core.fx.StepOnce()
		return shardMsg{Kind: viewStepDone, Count: count, Epoch: core.epoch}, err
	case viewEpoch:
		// Coordinated plan swap: re-plan for the coordinator's global
		// workset estimate, swap the session, and answer with the new
		// digest so the coordinator can verify the mesh stayed plan-agreed.
		phys, err := core.fx.ApplyEpoch(int64(req.Count))
		if err != nil {
			return shardMsg{}, err
		}
		core.digest, core.epoch = phys.Fingerprint(), req.Epoch
		return shardMsg{Kind: viewEpochDone, Digest: core.digest}, nil
	case viewQuery:
		var hit []record.Record
		if r, ok := core.lookup(req.Key); ok {
			hit = append(hit, r)
		}
		return shardMsg{Kind: viewValue, Frames: packRecords(hit)}, nil
	case viewCollect:
		var spans []obs.Span
		if h.reg != nil && core.cfg.TraceID != 0 {
			spans = h.reg.Trace().SpansFor(core.cfg.TraceID)
		}
		frames := core.collect()
		if err := core.sol.Err(); err != nil {
			return shardMsg{}, err
		}
		return shardMsg{Kind: viewSolution, Frames: frames, Spans: spans}, nil
	case viewStats:
		return shardMsg{Kind: viewStatted, Count: core.hostedRecords(), Bytes: core.sol.Bytes()}, nil
	case viewClose:
		return shardMsg{Kind: viewClosed}, nil
	}
	return shardMsg{}, fmt.Errorf("live: unexpected view message %q", req.Kind)
}

// openCore builds this host's session share from the opening message:
// maintainer, graph replica, config, and the listening shardCore — with its
// share of the cold workset seeded, or empty and awaiting view_load frames
// when the coordinator is recovering.
func (h *WorkerHost) openCore(msg shardMsg) (*shardCore, error) {
	ss := *msg.Spec
	m, err := ss.maintainer()
	if err != nil {
		return nil, err
	}
	if msg.HostID <= 0 || msg.HostID >= ss.Hosts {
		return nil, fmt.Errorf("live: worker host id %d outside 1..%d", msg.HostID, ss.Hosts-1)
	}
	cr, err := iterative.NewCheckpointReader(bytes.NewReader(msg.Frames))
	if err != nil {
		return nil, err
	}
	gs, err := readGraph(cr)
	if err != nil {
		return nil, err
	}
	cfg := specFor(ss, msg.HostID, h.reg)
	core, _, err := newShardCore(m, cfg, gs, !msg.Full, &ViewStats{})
	return core, err
}
