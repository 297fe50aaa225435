package live

import (
	"encoding/json"
	"fmt"
	"slices"

	"repro/internal/distrib"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/record"
)

// WorkerHost hosts sharded view maintenance sessions inside a `spinflow
// worker` process: it implements distrib.ViewHost, so the distrib control
// loop hands it every view_* message. One ServeView call runs one session
// — open, mesh, then coordinator-driven verbs until close — and the
// control connection returns to distrib afterwards for the next session
// (or batch job).
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
		switch req.Kind {
		case viewApply:
			recs, err := unpackRecords(req.Frames)
			if err != nil {
				return fail(err)
			}
			muts, err := recordsToMutations(recs)
			if err != nil {
				return fail(err)
			}
			if err := core.applyBatch(muts); err != nil {
				return fail(err)
			}
			if err := enc.Encode(shardMsg{Kind: viewApplied,
				Count: len(core.removed), Full: core.removes(), Digest: core.digest}); err != nil {
				return err
			}
		case viewImpact:
			known, err := unpackRecords(req.Frames)
			if err != nil {
				return fail(err)
			}
			if req.Round < 0 || req.Round >= len(core.removed) {
				return fail(fmt.Errorf("live: impact of removal %d, batch removed %d edges", req.Round, len(core.removed)))
			}
			share, ok := core.impact(core.removed[req.Round], known)
			if err := enc.Encode(shardMsg{Kind: viewRegion, Frames: packRecords(keyRecords(share)), Full: !ok}); err != nil {
				return err
			}
		case viewReplan:
			region, err := unpackRecords(req.Frames)
			if err != nil {
				return fail(err)
			}
			if _, err := core.settle(req.Full, recordKeys(region)); err != nil {
				return fail(err)
			}
			if err := enc.Encode(shardMsg{Kind: viewReplanned, Digest: core.digest}); err != nil {
				return err
			}
		case viewGather:
			// Own-keyed candidates stay here (buffered for the seed verb);
			// only remote-keyed ones travel, with Count telling the
			// coordinator how many were retained so it can detect a
			// globally empty round.
			outbound := slices.Concat(core.gatherRound(req.Round)...)
			if err := enc.Encode(shardMsg{Kind: viewCand,
				Frames: packRecords(outbound), Count: len(core.pending)}); err != nil {
				return err
			}
		case viewSeed:
			recs, err := unpackRecords(req.Frames)
			if err != nil {
				return fail(err)
			}
			workset, improving := core.seedRound(recs)
			core.fx.SeedWorkset(workset)
			if err := enc.Encode(shardMsg{Kind: viewSeeded, Count: improving}); err != nil {
				return err
			}
		case viewStep:
			count, err := core.fx.StepOnce()
			if err != nil {
				return fail(err)
			}
			if err := enc.Encode(shardMsg{Kind: viewStepDone, Count: count}); err != nil {
				return err
			}
		case viewQuery:
			reply := shardMsg{Kind: viewValue}
			if r, ok := core.lookup(req.Key); ok {
				reply.Found = true
				reply.Frames = recordsToFrames([]record.Record{r})
			}
			if err := enc.Encode(reply); err != nil {
				return err
			}
		case viewCollect:
			var spans []obs.Span
			if h.reg != nil && core.cfg.TraceID != 0 {
				spans = h.reg.Trace().SpansFor(core.cfg.TraceID)
			}
			if err := enc.Encode(shardMsg{Kind: viewSolution, Frames: core.collect(), Spans: spans}); err != nil {
				return err
			}
		case viewStats:
			if err := enc.Encode(shardMsg{Kind: viewStatted, Count: core.hostedRecords(), Bytes: core.sol.Bytes()}); err != nil {
				return err
			}
		case viewClose:
			return enc.Encode(shardMsg{Kind: viewClosed})
		default:
			return fmt.Errorf("live: unexpected view message %q", req.Kind)
		}
	}
}

// openCore builds this host's session share from the opening message:
// maintainer, graph replica, config, and the listening shardCore with its
// share of the cold workset seeded.
func (h *WorkerHost) openCore(msg shardMsg) (*shardCore, error) {
	ss := *msg.Spec
	m, err := maintainerFor(ss.Algorithm, ss.Source)
	if err != nil {
		return nil, err
	}
	if msg.HostID <= 0 || msg.HostID >= ss.Hosts {
		return nil, fmt.Errorf("live: worker host id %d outside 1..%d", msg.HostID, ss.Hosts-1)
	}
	gs, err := loadGraph(msg.Frames)
	if err != nil {
		return nil, err
	}
	var recovered []record.Record
	if msg.Sol != nil {
		if recovered, err = framesToRecords(msg.Sol); err != nil {
			return nil, err
		}
	}
	cfg := specFor(ss, msg.HostID, h.reg, &metrics.Counters{})
	core, _, err := newShardCore(m, cfg, false, gs, recovered, &ViewStats{})
	return core, err
}
