package runtime

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/record"
)

// The TCP wire protocol: every message starts with a fixed 17-byte header —
// kind, edge ID, destination partition, trace ID — and data messages carry
// one record frame (length-prefixed, CRC32-checked; see
// record.AppendFrame), so a torn connection or bit flip surfaces as
// ErrCorruptFrame instead of a misaligned stream. Per-connection TCP
// ordering guarantees that a producer's end-of-stream message arrives
// after all of its data.
//
// The trace ID ties every frame to the distributed run that produced it
// (obs.TraceID, stamped by the coordinator's job spec). Receivers with a
// non-zero expected ID reject frames carrying a different non-zero ID —
// cross-job traffic from a stale peer fails the run instead of silently
// merging into the wrong fixpoint. Zero means untraced and matches
// anything.
//
// A process that closes its transport says so first (tcpMsgBye), so its
// peers tell a hang-up from a crash: an EOF with no bye before it is a
// fault and counts as a TransportError, a bye is not. Either way nothing
// more comes from that peer, so exchanges waiting on it are closed.
const (
	tcpMsgData = 1 // header + one record frame
	tcpMsgEOS  = 2 // header only: one remote producer of edge finished
	tcpMsgBye  = 4 // header only: the sender closed its transport (3 was a retired kind)

	tcpHeaderSize = 17
	tcpTraceOff   = 9 // trace ID offset within the header
)

// tcpPreamble opens every peer connection: a magic marker plus the
// dialer's host ID, so the acceptor knows which peer it is talking to and
// stray connections are rejected before they can corrupt an exchange.
var tcpMagic = [4]byte{'S', 'P', 'X', '1'}

// TCPTransport is the distributed Transport: a session's non-hosted
// partitions are reached over persistent TCP connections to the peer
// processes hosting them, one connection per peer pair (the higher host
// ID dials). Batches travel as CRC32 record frames behind the 17-byte
// message header; a remote producer's writer.done turns into one EOS
// message per peer, so every exchange still closes after exactly
// `parallelism` producer completions — in-process tasks and remote peers
// combined.
//
// Inbound traffic that arrives between supersteps (a peer that started
// the next superstep first) parks in per-edge inboxes until the session
// re-arms the exchanges; placement never changes, so the parked batches
// always belong to the partition range this process hosts.
type TCPTransport struct {
	hostID    int
	placement Placement
	hosted    []bool
	m         *metrics.Counters

	ln     net.Listener
	closed atomic.Bool
	wg     sync.WaitGroup

	mu    sync.Mutex // guards peers registration and failure state
	peers []*tcpPeer // by host ID; nil at hostID and for unconnected peers
	err   error

	// inbox is the per-edge routing state, indexed by plan edge ID. It is
	// an atomic pointer because a coordinated plan epoch (Rebind) replaces
	// the whole set for the new plan's edge-ID space while the read loops
	// keep running: traffic is quiescent at the epoch barrier, but the
	// race detector rightly demands real synchronization between the swap
	// and the readers.
	inbox atomic.Pointer[[]edgeInbox]

	// traceID stamps outbound frame headers and screens inbound ones; set
	// by SetObs before the session runs. sendHist (optional) observes
	// per-send wall time; shipNanos accumulates it for the session's ship
	// span. timeSends gates the clock calls so an untraced transport pays
	// nothing.
	traceID   atomic.Uint64
	sendHist  *obs.Histogram
	timeSends atomic.Bool
	shipNanos atomic.Int64
}

// SetObs attaches telemetry: id is stamped on (and verified against)
// frame headers, sendHist — when non-nil — observes each outbound send's
// wall time. Call before the session starts running supersteps.
func (t *TCPTransport) SetObs(id obs.TraceID, sendHist *obs.Histogram) {
	t.traceID.Store(uint64(id))
	t.sendHist = sendHist
	t.timeSends.Store(id != 0 || sendHist != nil)
}

// ShipNanos returns the accumulated outbound send time (grows only after
// SetObs enabled timing); sessions diff it across a superstep to size the
// ship span.
func (t *TCPTransport) ShipNanos() int64 { return t.shipNanos.Load() }

// tcpPeer is one live connection to a peer process. Writes are serialized
// under mu; enc is the per-peer reusable serialization buffer.
type tcpPeer struct {
	mu   sync.Mutex
	conn net.Conn
	enc  []byte
}

// edgeInbox buffers inbound traffic for one plan edge while no exchange
// is armed (between supersteps), and routes it directly once one is.
type edgeInbox struct {
	mu      sync.Mutex
	ex      *exchange
	pending []pendBatch
	eos     int
	// failed closes any future armed exchange immediately, so a run
	// cannot hang waiting for producers on a dead connection.
	failed bool
}

type pendBatch struct {
	part int
	b    record.Batch
}

// NewTCPTransport creates the transport for one process of a distributed
// session: hostID is this process's index into the placement, numEdges is
// the plan's edge count (PhysPlan.NumEdges). Call Listen, then
// ConnectPeers, before opening the session.
func NewTCPTransport(hostID int, placement Placement, numEdges int, m *metrics.Counters) *TCPTransport {
	hosted := make([]bool, len(placement))
	for p, h := range placement {
		hosted[p] = h == hostID
	}
	hosts := 0
	for _, h := range placement {
		if h+1 > hosts {
			hosts = h + 1
		}
	}
	t := &TCPTransport{
		hostID:    hostID,
		placement: placement,
		hosted:    hosted,
		m:         m,
		peers:     make([]*tcpPeer, hosts),
	}
	boxes := make([]edgeInbox, numEdges)
	t.inbox.Store(&boxes)
	return t
}

// Rebind implements Rebinder: replace the per-edge inboxes with a fresh
// set sized for a re-optimized plan's edge count. Callers guarantee
// quiescence (see the interface contract); anything still parked for an
// old edge ID is dropped with the old set. If the transport has already
// failed, the new inboxes are born failed, so the next session's
// exchanges close immediately instead of hanging.
func (t *TCPTransport) Rebind(numEdges int) {
	boxes := make([]edgeInbox, numEdges)
	t.inbox.Store(&boxes)
	// Re-check the failure state after the swap: a fail() racing the
	// store may have marked only the old set.
	t.mu.Lock()
	err := t.err
	t.mu.Unlock()
	if err != nil {
		for i := range boxes {
			boxes[i].mu.Lock()
			boxes[i].failed = true
			boxes[i].mu.Unlock()
		}
	}
}

// Listen starts the transport's data listener and returns its address
// (pass ":0" for an ephemeral port).
func (t *TCPTransport) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	t.ln = ln
	t.wg.Add(1)
	go t.acceptLoop()
	return ln.Addr().String(), nil
}

// transportLabels mark the transport's inbound goroutines (acceptLoop,
// readLoop) for the profiler, set once when each starts. The send side
// runs on the runtime's task goroutines and keeps their labels.
var transportLabels = pprof.WithLabels(context.Background(), pprof.Labels("layer", "transport", "op", "read"))

func (t *TCPTransport) acceptLoop() {
	defer t.wg.Done()
	pprof.SetGoroutineLabels(transportLabels)
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			if !t.closed.Load() {
				t.fail(fmt.Errorf("runtime: transport accept: %w", err))
			}
			return
		}
		t.admit(conn)
	}
}

// admit reads an accepted connection's preamble and registers the dialer
// as that peer; a connection without a valid preamble, or from a peer
// that is out of range or already connected, is closed.
func (t *TCPTransport) admit(conn net.Conn) {
	var pre [8]byte
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.ReadFull(conn, pre[:]); err != nil || [4]byte(pre[:4]) != tcpMagic {
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Time{})
	if !t.register(int(binary.LittleEndian.Uint32(pre[4:8])), conn) {
		conn.Close()
	}
}

// register installs a peer connection and starts its read loop. It
// rejects out-of-range or duplicate peers.
func (t *TCPTransport) register(peerID int, conn net.Conn) bool {
	t.mu.Lock()
	if peerID < 0 || peerID >= len(t.peers) || peerID == t.hostID || t.peers[peerID] != nil {
		t.mu.Unlock()
		return false
	}
	t.peers[peerID] = &tcpPeer{conn: conn}
	t.mu.Unlock()
	t.wg.Add(1)
	go t.readLoop(conn)
	return true
}

// ConnectPeers establishes the full mesh: this host dials every peer with
// a lower ID (addrs indexed by host ID) and waits until every peer with a
// higher ID has dialed in, up to the timeout.
func (t *TCPTransport) ConnectPeers(addrs []string, timeout time.Duration) error {
	for id := 0; id < t.hostID && id < len(addrs); id++ {
		conn, err := net.DialTimeout("tcp", addrs[id], timeout)
		if err != nil {
			return fmt.Errorf("runtime: transport dial host %d (%s): %w", id, addrs[id], err)
		}
		var pre [8]byte
		copy(pre[:4], tcpMagic[:])
		binary.LittleEndian.PutUint32(pre[4:8], uint32(t.hostID))
		if _, err := conn.Write(pre[:]); err != nil {
			conn.Close()
			return fmt.Errorf("runtime: transport preamble to host %d: %w", id, err)
		}
		if !t.register(id, conn) {
			conn.Close()
			return fmt.Errorf("runtime: transport: duplicate connection to host %d", id)
		}
	}
	deadline := time.Now().Add(timeout)
	for {
		t.mu.Lock()
		missing := 0
		for id, p := range t.peers {
			if id != t.hostID && p == nil {
				missing++
			}
		}
		err := t.err
		t.mu.Unlock()
		if err != nil {
			return err
		}
		if missing == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("runtime: transport: %d peer(s) did not connect within %v", missing, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Hosted reports whether partition p executes in this process.
func (t *TCPTransport) Hosted(p int) bool { return t.hosted[p] }

// HostedParts returns this process's partitions, ascending.
func (t *TCPTransport) HostedParts() []int { return t.placement.HostedBy(t.hostID) }

// Send ships one batch to the peer hosting part. Failures are absorbed
// (counted, surfaced via Err); the superstep driver aborts the run.
func (t *TCPTransport) Send(edgeID, part int, b record.Batch) {
	t.mu.Lock()
	p := t.peers[t.placement[part]]
	t.mu.Unlock()
	if p == nil {
		t.fail(fmt.Errorf("runtime: transport: no connection to host %d (partition %d)", t.placement[part], part))
		return
	}
	var t0 time.Time
	timed := t.timeSends.Load()
	if timed {
		t0 = time.Now()
	}
	p.mu.Lock()
	p.enc = p.enc[:0]
	p.enc = append(p.enc, make([]byte, tcpHeaderSize)...)
	p.enc[0] = tcpMsgData
	binary.LittleEndian.PutUint32(p.enc[1:5], uint32(edgeID))
	binary.LittleEndian.PutUint32(p.enc[5:9], uint32(part))
	binary.LittleEndian.PutUint64(p.enc[tcpTraceOff:tcpHeaderSize], t.traceID.Load())
	p.enc = record.AppendFrame(p.enc, b)
	n := len(p.enc)
	_, err := p.conn.Write(p.enc)
	p.mu.Unlock()
	if timed {
		d := int64(time.Since(t0))
		t.shipNanos.Add(d)
		if t.sendHist != nil {
			t.sendHist.Observe(time.Duration(d))
		}
	}
	if err != nil {
		t.fail(fmt.Errorf("runtime: transport send to host %d: %w", t.placement[part], err))
		return
	}
	if t.m != nil {
		t.m.RemoteBatches.Add(1)
		t.m.RemoteBytes.Add(int64(n))
	}
}

// FinishProducer announces one finished local producer of edgeID to every
// peer. TCP ordering makes the EOS arrive after the producer's data.
func (t *TCPTransport) FinishProducer(edgeID int) {
	var hdr [tcpHeaderSize]byte
	hdr[0] = tcpMsgEOS
	binary.LittleEndian.PutUint32(hdr[1:5], uint32(edgeID))
	binary.LittleEndian.PutUint64(hdr[tcpTraceOff:tcpHeaderSize], t.traceID.Load())
	t.mu.Lock()
	peers := append([]*tcpPeer(nil), t.peers...)
	t.mu.Unlock()
	for id, p := range peers {
		if p == nil {
			continue
		}
		p.mu.Lock()
		_, err := p.conn.Write(hdr[:])
		p.mu.Unlock()
		if err != nil {
			t.fail(fmt.Errorf("runtime: transport EOS to host %d: %w", id, err))
		}
	}
}

func (t *TCPTransport) readLoop(conn net.Conn) {
	defer t.wg.Done()
	pprof.SetGoroutineLabels(transportLabels)
	br := bufio.NewReaderSize(conn, 64<<10)
	fr := record.NewFrameReader(br)
	for {
		var hdr [tcpHeaderSize]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if !t.closed.Load() {
				t.fail(fmt.Errorf("runtime: transport connection lost: %w", err))
			}
			return
		}
		if hdr[0] == tcpMsgBye {
			t.abort(errors.New("runtime: transport: a peer hung up"))
			return
		}
		edge := int(binary.LittleEndian.Uint32(hdr[1:5]))
		if edge < 0 || edge >= len(*t.inbox.Load()) {
			t.fail(fmt.Errorf("runtime: transport: edge %d out of range", edge))
			return
		}
		if got, want := binary.LittleEndian.Uint64(hdr[tcpTraceOff:tcpHeaderSize]), t.traceID.Load(); got != 0 && want != 0 && got != want {
			t.fail(fmt.Errorf("runtime: transport: frame carries trace %016x, this job is %016x — stale peer?", got, want))
			return
		}
		switch hdr[0] {
		case tcpMsgData:
			part := int(binary.LittleEndian.Uint32(hdr[5:9]))
			b, err := fr.Next()
			if err != nil {
				t.fail(fmt.Errorf("runtime: transport frame: %w", err))
				return
			}
			if part < 0 || part >= len(t.hosted) || !t.hosted[part] {
				t.fail(fmt.Errorf("runtime: transport: batch for partition %d not hosted here", part))
				return
			}
			t.deliver(edge, part, b)
		case tcpMsgEOS:
			t.finish(edge)
		default:
			t.fail(fmt.Errorf("runtime: transport: unknown message kind %d", hdr[0]))
			return
		}
	}
}

// deliver routes one inbound batch: straight into the armed exchange, or
// into the inbox until the session arms one. The inbox lock is held
// across the push: disarmAll takes the same lock, so once the session has
// disarmed (the superstep barrier), no late delivery can touch an
// exchange the next superstep is about to reset.
func (t *TCPTransport) deliver(edge, part int, b record.Batch) {
	in := &(*t.inbox.Load())[edge]
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.ex != nil {
		in.ex.queues[part].push(b)
		return
	}
	in.pending = append(in.pending, pendBatch{part: part, b: b})
}

// finish accounts one remote producer completion for edge, under the same
// lock discipline as deliver.
func (t *TCPTransport) finish(edge int) {
	in := &(*t.inbox.Load())[edge]
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.ex != nil {
		in.ex.producerDone()
		return
	}
	in.eos++
}

// arm implements Transport: the session installs the superstep's exchange
// for its edge and the parked traffic flushes into it.
func (t *TCPTransport) arm(ex *exchange) {
	in := &(*t.inbox.Load())[ex.id]
	in.mu.Lock()
	pending, eos, failed := in.pending, in.eos, in.failed
	in.pending, in.eos = nil, 0
	in.ex = ex
	in.mu.Unlock()
	for _, pb := range pending {
		ex.queues[pb.part].push(pb.b)
	}
	for i := 0; i < eos; i++ {
		ex.producerDone()
	}
	if failed {
		ex.closeAll()
	}
}

// disarmAll implements Transport: detach every exchange at the superstep
// barrier, so traffic racing ahead parks in the inboxes.
func (t *TCPTransport) disarmAll() {
	boxes := *t.inbox.Load()
	for i := range boxes {
		in := &boxes[i]
		in.mu.Lock()
		in.ex = nil
		in.mu.Unlock()
	}
}

// fail is abort for a fault: it also counts the error.
func (t *TCPTransport) fail(err error) {
	if t.m != nil {
		t.m.TransportErrors.Add(1)
	}
	t.abort(err)
}

// abort records the first transport error and force-closes every armed
// exchange so blocked consumers unblock; the driver sees the error through
// Err after the superstep returns.
func (t *TCPTransport) abort(err error) {
	t.mu.Lock()
	if t.err == nil {
		t.err = err
	}
	t.mu.Unlock()
	// Load the inbox set only after recording the error: a concurrent
	// Rebind either publishes its new set before this load (and it gets
	// marked here), or re-reads t.err after its store (and marks it
	// itself) — either way no inbox set escapes unfailed.
	boxes := *t.inbox.Load()
	for i := range boxes {
		in := &boxes[i]
		in.mu.Lock()
		in.failed = true
		ex := in.ex
		in.mu.Unlock()
		if ex != nil {
			ex.closeAll()
		}
	}
}

// Err returns the first transport failure, if any.
func (t *TCPTransport) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Close shuts the transport down: every peer is sent a bye, the listener
// and every peer connection close, and the read loops drain. A peer reads
// the bye as a hang-up; one whose session still needs this process fails
// its run, but counts no TransportError.
func (t *TCPTransport) Close() {
	if !t.closed.CompareAndSwap(false, true) {
		return
	}
	if t.ln != nil {
		t.ln.Close()
	}
	var bye [tcpHeaderSize]byte
	bye[0] = tcpMsgBye
	t.mu.Lock()
	for _, p := range t.peers {
		if p != nil {
			p.mu.Lock()
			p.conn.SetWriteDeadline(time.Now().Add(time.Second))
			p.conn.Write(bye[:])
			p.mu.Unlock()
			p.conn.Close()
		}
	}
	t.mu.Unlock()
	t.wg.Wait()
}
