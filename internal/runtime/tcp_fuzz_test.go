package runtime

import (
	"encoding/binary"
	"net"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/record"
)

// tcpMessage is one data-plane message as a peer writes it: the 17-byte
// header, then (for data) one record frame.
func tcpMessage(kind byte, edge, part uint32, trace uint64, frame []byte) []byte {
	msg := make([]byte, tcpHeaderSize, tcpHeaderSize+len(frame))
	msg[0] = kind
	binary.LittleEndian.PutUint32(msg[1:5], edge)
	binary.LittleEndian.PutUint32(msg[5:9], part)
	binary.LittleEndian.PutUint64(msg[tcpTraceOff:tcpHeaderSize], trace)
	return append(msg, frame...)
}

// FuzzTCPInbound feeds arbitrary bytes, after a valid preamble from peer
// 1, to the transport's inbound decoder over an in-memory connection.
// Every input must end with the read loop gone and Err set — the peer
// hangs up after the bytes, so even a clean stream ends as a lost
// connection or, after a bye, a hang-up — having delivered only batches
// for a hosted partition and an in-range edge. A panic or a read loop
// that never returns fails.
func FuzzTCPInbound(f *testing.F) {
	const edges, trace = 2, 7
	frame := record.AppendFrame(nil, record.Batch{{A: 1, B: 2}, {A: 3, X: 0.5}})
	data := tcpMessage(tcpMsgData, 1, 0, trace, frame)
	eos := tcpMessage(tcpMsgEOS, 0, 0, 0, nil)
	bye := tcpMessage(tcpMsgBye, 0, 0, 0, nil)
	f.Add(append(append([]byte(nil), data...), eos...))
	f.Add(append(append([]byte(nil), data...), bye...))
	f.Add(data[:len(data)-3])                                // torn frame
	f.Add(tcpMessage(tcpMsgData, 0, 1, trace, frame))        // partition hosted elsewhere
	f.Add(tcpMessage(tcpMsgData, edges, 0, trace, frame))    // edge out of range
	f.Add(tcpMessage(tcpMsgData, 0, 0, trace+1, frame))      // another job's trace
	f.Add(tcpMessage(3, 0, 0, trace, []byte{9, 0, 0, 0, 1})) // retired compressed kind
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, in []byte) {
		tr := NewTCPTransport(0, Placement{0, 1}, edges, &metrics.Counters{})
		tr.SetObs(trace, nil)
		defer tr.Close()
		local, remote := net.Pipe()
		go func() {
			pre := append(tcpMagic[:], 1, 0, 0, 0)
			remote.Write(append(pre, in...))
			remote.Close()
		}()
		tr.admit(local)
		done := make(chan struct{})
		go func() { tr.wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("read loop still running after the peer hung up")
		}
		if tr.Err() == nil {
			t.Fatal("the read loop ended without an error")
		}
		boxes := *tr.inbox.Load()
		for e := range boxes {
			for _, pb := range boxes[e].pending {
				if !tr.hosted[pb.part] {
					t.Fatalf("edge %d: delivered a batch for partition %d, hosted elsewhere", e, pb.part)
				}
			}
		}
	})
}
