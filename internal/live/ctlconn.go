package live

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/record"
)

// maxControlFrame caps a control frame's body: a longer one is refused
// before anything is allocated for it.
const maxControlFrame = 1 << 30

var (
	errControlFrame    = errors.New("live: malformed control frame")
	errControlDeadline = errors.New("live: control wait past its deadline")
)

// ctlConn is either end of one control connection. A message is one
// frame, a big-endian uint32 length and that much JSON, sent in a single
// Write. Rounds and barrier steps run under the view's exclusive lock;
// calls take mu, so concurrent Query calls (shared view lock) share the
// connection safely. It is the control plane's one codec: send packs a
// message's records and mutations into Frames, read unpacks them.
type ctlConn struct {
	mu    sync.Mutex
	conn  net.Conn
	r     *bufio.Reader
	late  atomic.Bool // the session's deadline cut the connection
	sends int         // toWorker on a coordinator's end, toCoordinator on a worker's
}

func newCtlConn(conn net.Conn) *ctlConn {
	return &ctlConn{conn: conn, r: bufio.NewReader(conn)}
}

// The two ways a message travels: a request to the worker, a reply back.
const (
	toWorker = iota
	toCoordinator
)

// recordsTo lists the verbs whose Frames carry records (shardMsg.recs),
// and which way. The one other payload is view_apply's mutation batch
// (shardMsg.muts), to the worker; view_open's Frames carry the graph,
// which its caller encodes.
var recordsTo = map[verb]int{
	viewLoad: toWorker, viewReplan: toWorker, viewSeed: toWorker,
	viewGather: toCoordinator, viewQuery: toCoordinator, viewCollect: toCoordinator,
}

// recv reads the reply to a request of verb want: one that carries Err is
// the worker's failure, one of another verb means the connection is out
// of step.
func (c *ctlConn) recv(want verb) (shardMsg, error) {
	msg, err := c.read()
	switch {
	case err != nil:
		return shardMsg{}, err
	case msg.Err != "":
		return shardMsg{}, fmt.Errorf("live: worker: %s", msg.Err)
	case msg.Kind != want:
		return shardMsg{}, fmt.Errorf("live: worker answered %s, want %s", msg.Kind, want)
	}
	return msg, nil
}

// send encodes msg's payload and writes msg as one frame.
func (c *ctlConn) send(msg shardMsg) error {
	to, records := recordsTo[msg.Kind]
	switch {
	case msg.Err != "": // a failure reply carries no payload
	case records && to == c.sends:
		msg.Frames = packRecords(msg.recs)
	case msg.Kind == viewApply && c.sends == toWorker:
		msg.Frames = appendMutations(nil, msg.muts)
	}
	body, err := json.Marshal(msg)
	if err != nil {
		return err
	}
	_, err = c.conn.Write(append(binary.BigEndian.AppendUint32(make([]byte, 0, 4+len(body)), uint32(len(body))), body...))
	return c.ioErr(err)
}

// read reads one frame and decodes its payload; a clean hang-up between
// frames reads io.EOF. The body is read as it arrives, so a frame that
// stops short allocates no more than what came.
func (c *ctlConn) read() (shardMsg, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(c.r, hdr[:]); err != nil {
		return shardMsg{}, c.ioErr(err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxControlFrame {
		return shardMsg{}, fmt.Errorf("%w: length %d over the cap", errControlFrame, n)
	}
	body, err := io.ReadAll(io.LimitReader(c.r, int64(n)))
	if err == nil && len(body) < int(n) {
		err = io.ErrUnexpectedEOF
	}
	var msg shardMsg
	if err != nil {
		return msg, c.ioErr(err)
	}
	if err := json.Unmarshal(body, &msg); err != nil {
		return msg, fmt.Errorf("%w: %w", errControlFrame, err)
	}
	to, records := recordsTo[msg.Kind]
	switch {
	case msg.Err != "": // a failure reply carries no payload
	case records && to != c.sends:
		msg.recs, err = unpackRecords(msg.Frames)
	case msg.Kind == viewApply && c.sends == toCoordinator:
		msg.muts, err = decodeMutations(msg.Frames)
	}
	if err != nil {
		return msg, fmt.Errorf("%w: %s: %w", errControlFrame, msg.Kind, err)
	}
	return msg, nil
}

// ioErr marks an error on a connection the deadline cut.
func (c *ctlConn) ioErr(err error) error {
	if err != nil && c.late.Load() {
		return fmt.Errorf("%w: %w", errControlDeadline, err)
	}
	return err
}

// packRecords is the wire form of every record payload on the control
// plane (candidate worksets, solution records in either direction): a
// flags byte plus varint fields, skipping zero B/X — a quarter of the
// framed record encoding, which matters because these payloads dominate
// what a sharded flush ships. Mutation batches travel in their own
// encoding (appendMutations), and the graph CRC-framed, as the checkpoint
// sections a snapshot stores it in.
func packRecords(recs []record.Record) []byte {
	out := make([]byte, 0, 8*len(recs)+binary.MaxVarintLen64)
	out = binary.AppendUvarint(out, uint64(len(recs)))
	var xb [8]byte
	for _, r := range recs {
		var flags byte
		if r.B != 0 {
			flags |= 1
		}
		if r.X != 0 {
			flags |= 2
		}
		out = append(out, flags)
		out = binary.AppendUvarint(out, uint64(r.A))
		if flags&1 != 0 {
			out = binary.AppendUvarint(out, uint64(r.B))
		}
		if flags&2 != 0 {
			binary.LittleEndian.PutUint64(xb[:], math.Float64bits(r.X))
			out = append(out, xb[:]...)
		}
	}
	return out
}

// unpackRecords decodes a packRecords payload. A flags byte with any bit
// but B's and X's is malformed.
func unpackRecords(p []byte) ([]record.Record, error) {
	bad := fmt.Errorf("live: malformed packed records")
	n, w := binary.Uvarint(p)
	if w <= 0 {
		return nil, bad
	}
	p = p[w:]
	out := make([]record.Record, 0, int(min(n, 1<<16))) // clamped before the conversion: n is untrusted
	for i := uint64(0); i < n; i++ {
		if len(p) == 0 {
			return nil, bad
		}
		flags := p[0]
		if flags&^3 != 0 {
			return nil, bad // a flag this encoder never sets: a stale or foreign peer
		}
		p = p[1:]
		var r record.Record
		a, w := binary.Uvarint(p)
		if w <= 0 {
			return nil, bad
		}
		r.A = int64(a)
		p = p[w:]
		if flags&1 != 0 {
			b, w := binary.Uvarint(p)
			if w <= 0 {
				return nil, bad
			}
			r.B = int64(b)
			p = p[w:]
		}
		if flags&2 != 0 {
			if len(p) < 8 {
				return nil, bad
			}
			r.X = math.Float64frombits(binary.LittleEndian.Uint64(p))
			p = p[8:]
		}
		out = append(out, r)
	}
	if len(p) != 0 {
		return nil, bad
	}
	return out, nil
}
