package live

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime/metrics"
	"strings"
	"testing"

	"repro/internal/distrib"
)

// frameFault is what a cutConn does to one control frame.
type frameFault int

const (
	passFrame   frameFault = iota
	closeBefore            // the connection closes before the frame
	tearFrame              // half the frame goes through, then the connection closes
	holdFrame              // the frame waits until the connection is gone
)

var faultNames = [...]string{passFrame: "pass", closeBefore: "close before", tearFrame: "torn", holdFrame: "held"}

// frameHook sees the body of every frame that passes a cutConn — out is
// true for a frame this end writes — and decides its fault. It may return
// another body to send in its place.
type frameHook func(out bool, body []byte) (frameFault, []byte)

// cutConn is one end of a control connection that sees every frame in
// both directions: a write is one whole frame (ctlConn sends each in a
// single Write) and the read side is parsed from the stream frame by frame.
// It is the one fault seam of the control plane: a coordinator's view dials
// through it (ViewConfig.dial), and a fake worker serves through it.
type cutConn struct {
	net.Conn
	hook frameHook
	rbuf []byte // the rest of the inbound frame being read
	rerr error  // what a read returns once rbuf is drained
}

func framed(body []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
}

func (c *cutConn) Write(p []byte) (int, error) {
	if len(p) < 4 || int(binary.BigEndian.Uint32(p))+4 != len(p) {
		return 0, fmt.Errorf("cutConn: a write of %d bytes is not one frame", len(p))
	}
	fault, body := c.hook(true, p[4:])
	frame := framed(body)
	switch fault {
	case closeBefore:
		c.Conn.Close()
		return 0, net.ErrClosed
	case tearFrame:
		n, _ := c.Conn.Write(frame[:len(frame)/2])
		c.Conn.Close()
		return n, net.ErrClosed
	case holdFrame:
		return 0, c.hold()
	}
	if _, err := c.Conn.Write(frame); err != nil {
		return 0, err
	}
	return len(p), nil
}

func (c *cutConn) Read(p []byte) (int, error) {
	if len(c.rbuf) == 0 {
		if c.rerr != nil {
			return 0, c.rerr
		}
		var hdr [4]byte
		if _, err := io.ReadFull(c.Conn, hdr[:]); err != nil {
			return 0, err
		}
		body := make([]byte, binary.BigEndian.Uint32(hdr[:]))
		if _, err := io.ReadFull(c.Conn, body); err != nil {
			return 0, err
		}
		fault, body := c.hook(false, body)
		c.rbuf = framed(body)
		switch fault {
		case closeBefore:
			c.Conn.Close()
			c.rbuf, c.rerr = nil, io.EOF
		case tearFrame:
			c.Conn.Close()
			c.rbuf, c.rerr = c.rbuf[:len(c.rbuf)/2], io.EOF
		case holdFrame:
			c.rbuf, c.rerr = nil, c.hold()
		}
		if len(c.rbuf) == 0 {
			return 0, c.rerr
		}
	}
	n := copy(p, c.rbuf)
	c.rbuf = c.rbuf[n:]
	return n, nil
}

// hold waits until the connection is gone — closed at this end (a
// coordinator's deadline cut) or hung up at the other — and fails.
func (c *cutConn) hold() error {
	io.Copy(io.Discard, c.Conn)
	c.Conn.Close()
	return net.ErrClosed
}

// CloseWrite passes a coordinator's hang-up through.
func (c *cutConn) CloseWrite() error {
	if cw, ok := c.Conn.(interface{ CloseWrite() error }); ok {
		return cw.CloseWrite()
	}
	return c.Conn.Close()
}

// replies is a worker-side hook: every reply the worker writes passes
// through mutate, which may rewrite it and picks its fault.
func replies(mutate func(reply *shardMsg) frameFault) frameHook {
	return func(out bool, body []byte) (frameFault, []byte) {
		if !out {
			return passFrame, body
		}
		var msg shardMsg
		if err := json.Unmarshal(body, &msg); err != nil {
			panic(err)
		}
		fault := mutate(&msg)
		body, err := json.Marshal(msg)
		if err != nil {
			panic(err)
		}
		return fault, body
	}
}

// dropAt hangs up instead of answering the first verb kind.
func dropAt(kind verb) func(*shardMsg) frameFault {
	return func(reply *shardMsg) frameFault {
		if reply.Kind == kind {
			return closeBefore
		}
		return passFrame
	}
}

// fakeHost is an almost-honest worker: the real WorkerHost serves every
// session (real plan, real data plane, real epoch swaps) through a
// cutConn, so a test can inject exactly one protocol-level lie, a dropped
// connection or a stall, and watch the coordinator catch it.
type fakeHost struct{ hook frameHook }

func (f fakeHost) ServeView(conn net.Conn) error {
	return NewWorkerHost(nil).ServeView(&cutConn{Conn: conn, hook: f.hook})
}

// startHookedWorker runs a fakeHost whose frames pass through hook on a
// loopback listener and returns its control address.
func startHookedWorker(t *testing.T, hook frameHook) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go distrib.ServeWorkerWith(ln, distrib.ServeWorkerOpts{Views: fakeHost{hook}})
	return ln.Addr().String()
}

// startFakeWorker runs a fakeHost whose replies pass through mutate.
func startFakeWorker(t *testing.T, mutate func(reply *shardMsg) frameFault) string {
	return startHookedWorker(t, replies(mutate))
}

// bufConn is a net.Conn over a byte stream, for feeding ctlConn bytes.
type bufConn struct {
	net.Conn
	buf bytes.Buffer
}

func (b *bufConn) Read(p []byte) (int, error)  { return b.buf.Read(p) }
func (b *bufConn) Write(p []byte) (int, error) { return b.buf.Write(p) }

// FuzzControlFrame feeds arbitrary bytes to a control connection's reader:
// it must never panic, must refuse a length over the cap, must allocate in
// proportion to the bytes that arrived, never to the length a frame claims,
// and a frame the writer sent must read back equal.
func FuzzControlFrame(f *testing.F) {
	f.Add([]byte{0, 0, 0, 2, '{', '}'}, int64(7), "view_step")
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2}, int64(-1), "")
	f.Add([]byte{0x3f, 0xff, 0xff, 0xff, '{', '"', 'k'}, int64(1<<40), "view_stats")
	f.Add([]byte{0, 0, 0, 9, '{', '"', 'k', 'i', 'n', 'd', '"', ':', '4', '}'}, int64(0), "\xff")
	f.Fuzz(func(t *testing.T, data []byte, key int64, kind string) {
		c := newCtlConn(&bufConn{})
		c.conn.(*bufConn).buf.Write(data)
		// The heap's cumulative allocation counter, which reading does not
		// stop the world for (runtime.ReadMemStats does).
		allocs := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
		metrics.Read(allocs)
		before := allocs[0].Value.Uint64()
		for {
			_, err := c.read()
			if err != nil {
				if len(data) >= 4 && binary.BigEndian.Uint32(data) > maxControlFrame && !errors.Is(err, errControlFrame) {
					t.Fatalf("a length over the cap read as %v", err)
				}
				break
			}
		}
		metrics.Read(allocs)
		if n := allocs[0].Value.Uint64() - before; n > uint64(16*len(data))+1<<20 {
			t.Fatalf("reading %d bytes allocated %d", len(data), n)
		}

		want := shardMsg{Kind: verb(strings.ToValidUTF8(kind, "")), Key: key, Frames: data, Digest: strings.ToValidUTF8(string(data), "")}
		if _, ok := recordsTo[want.Kind]; ok || want.Kind == viewApply {
			want.Kind = viewStats // the codec, not the sender, writes these verbs' Frames
		}
		c = newCtlConn(&bufConn{})
		if err := c.send(want); err != nil {
			t.Fatal(err)
		}
		got, err := c.read()
		if err != nil {
			t.Fatal(err)
		}
		if got.Kind != want.Kind || got.Key != want.Key || !bytes.Equal(got.Frames, want.Frames) || got.Digest != want.Digest {
			t.Fatalf("sent %+v, read back %+v", want, got)
		}
		if _, err := c.read(); err != io.EOF {
			t.Fatalf("after the one frame: %v, want io.EOF", err)
		}
	})
}
