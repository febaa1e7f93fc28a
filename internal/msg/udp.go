// udp.go implements the appendix-D alternative the paper discusses but
// does not adopt: UDP/IP datagrams. "There is no guaranteed delivery of
// messages. Thus, the distributed program must check that messages are
// delivered, and resend messages if necessary, which is a considerable
// effort. However, the benefit is that the distributed program has more
// control of the communication … [and] robustness in the case of network
// errors that occur under very high network traffic."
//
// This transport does that considerable effort: every data datagram
// carries a per-destination sequence number, the receiver acknowledges
// each one, the sender retransmits unacknowledged datagrams on a timer,
// and duplicates are suppressed on the receive path. Unlike TCP, the
// program knows precisely which data is outstanding at any time — the
// appendix's point about recovering from overload.
package msg

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/registry"
)

const (
	dgramData = 1
	dgramAck  = 2

	// udpMaxPayload bounds one datagram's float64 payload; halo messages
	// are far below a 64 KB datagram (a 300-node side carries ~7 KB).
	udpMaxPayload = 60000

	// DefaultRetransmit is the resend interval for unacknowledged
	// datagrams.
	DefaultRetransmit = 20 * time.Millisecond
)

// UDPStats counts reliability events.
type UDPStats struct {
	Sent          int
	Retransmitted int
	Duplicates    int
	Acked         int
}

// UDP is the datagram transport with program-level reliability.
type UDP struct {
	rank  int
	epoch int
	reg   *registry.Registry
	conn  *net.UDPConn

	recv chan Message

	mu      sync.Mutex
	peers   map[int]*net.UDPAddr
	nextSeq map[int]uint32
	unacked map[string][]byte // key: dest:seq -> encoded datagram
	seen    map[int]map[uint32]bool
	stats   UDPStats
	closed  bool

	// Drop, when non-nil, is a test hook: returning true drops an
	// outgoing data datagram (simulating the lossy network the paper's
	// appendix worries about). Retransmission must still deliver.
	Drop func() bool

	retransmit time.Duration
	wg         sync.WaitGroup
	done       chan struct{}
}

// NewUDP opens a datagram socket on the loopback interface, publishes its
// address under (epoch, rank), and starts the receive and retransmit
// loops.
func NewUDP(rank, epoch int, reg *registry.Registry) (*UDP, error) {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, fmt.Errorf("msg: rank %d udp listen: %w", rank, err)
	}
	if err := reg.Publish(epoch, rank, conn.LocalAddr().String()); err != nil {
		conn.Close()
		return nil, err
	}
	u := &UDP{
		rank:       rank,
		epoch:      epoch,
		reg:        reg,
		conn:       conn,
		recv:       make(chan Message, queueCap),
		peers:      make(map[int]*net.UDPAddr),
		nextSeq:    make(map[int]uint32),
		unacked:    make(map[string][]byte),
		seen:       make(map[int]map[uint32]bool),
		retransmit: DefaultRetransmit,
		done:       make(chan struct{}),
	}
	u.wg.Add(2)
	go u.readLoop()
	go u.retransmitLoop()
	return u, nil
}

// Stats returns the reliability counters.
func (u *UDP) Stats() UDPStats {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.stats
}

func (u *UDP) peerAddr(rank int) (*net.UDPAddr, error) {
	u.mu.Lock()
	if a, ok := u.peers[rank]; ok {
		u.mu.Unlock()
		return a, nil
	}
	u.mu.Unlock()
	s, err := u.reg.Lookup(u.epoch, rank, DialTimeout)
	if err != nil {
		return nil, err
	}
	a, err := net.ResolveUDPAddr("udp", s)
	if err != nil {
		return nil, fmt.Errorf("msg: resolving rank %d: %w", rank, err)
	}
	u.mu.Lock()
	u.peers[rank] = a
	u.mu.Unlock()
	return a, nil
}

// encodeData builds a data datagram: kind, seq, then the standard frame.
func encodeData(seq uint32, m Message) []byte {
	buf := make([]byte, 8+headerBytes+8*len(m.Data))
	binary.LittleEndian.PutUint32(buf[0:], dgramData)
	binary.LittleEndian.PutUint32(buf[4:], seq)
	binary.LittleEndian.PutUint32(buf[8:], frameMagic)
	binary.LittleEndian.PutUint32(buf[12:], uint32(m.From))
	binary.LittleEndian.PutUint32(buf[16:], uint32(int32(m.Step)))
	binary.LittleEndian.PutUint32(buf[20:], uint32(int32(m.Phase)))
	binary.LittleEndian.PutUint32(buf[24:], uint32(int32(m.Dir)))
	binary.LittleEndian.PutUint32(buf[28:], uint32(len(m.Data)))
	for i, v := range m.Data {
		binary.LittleEndian.PutUint64(buf[8+headerBytes+8*i:], mathFloat64bits(v))
	}
	return buf
}

// Send transmits m as a reliable datagram.
func (u *UDP) Send(m Message) error {
	if 8*len(m.Data) > udpMaxPayload {
		return fmt.Errorf("msg: udp payload %d floats exceeds one datagram", len(m.Data))
	}
	u.mu.Lock()
	if u.closed {
		u.mu.Unlock()
		return ErrClosed
	}
	u.mu.Unlock()
	addr, err := u.peerAddr(m.To)
	if err != nil {
		return err
	}
	m.From = u.rank
	u.mu.Lock()
	seq := u.nextSeq[m.To]
	u.nextSeq[m.To] = seq + 1
	pkt := encodeData(seq, m)
	u.unacked[fmt.Sprintf("%d:%d", m.To, seq)] = append([]byte(nil), pkt...)
	drop := u.Drop != nil && u.Drop()
	u.stats.Sent++
	u.mu.Unlock()

	if !drop {
		if _, err := u.conn.WriteToUDP(pkt, addr); err != nil {
			return fmt.Errorf("msg: udp send to %d: %w", m.To, err)
		}
	}
	// Delivery is guaranteed by the retransmit loop, not this write.
	return nil
}

// Flush does nothing: Send has already transmitted.
func (u *UDP) Flush() error { return nil }

// Recv blocks until a message arrives (exactly once per sent message).
func (u *UDP) Recv() (Message, error) {
	m, ok := <-u.recv
	if !ok {
		return Message{}, ErrClosed
	}
	return m, nil
}

func (u *UDP) readLoop() {
	defer u.wg.Done()
	buf := make([]byte, 65536)
	for {
		n, from, err := u.conn.ReadFromUDP(buf)
		if err != nil {
			return // socket closed
		}
		if n < 8 {
			continue
		}
		kind := binary.LittleEndian.Uint32(buf[0:])
		seq := binary.LittleEndian.Uint32(buf[4:])
		switch kind {
		case dgramAck:
			if n < 12 {
				continue
			}
			acker := int(binary.LittleEndian.Uint32(buf[8:]))
			u.mu.Lock()
			key := fmt.Sprintf("%d:%d", acker, seq)
			if _, ok := u.unacked[key]; ok {
				delete(u.unacked, key)
				u.stats.Acked++
			}
			u.mu.Unlock()
		case dgramData:
			if n < 8+headerBytes {
				continue
			}
			m, err := decodeFrame(buf[8:n])
			if err != nil {
				continue
			}
			m.To = u.rank
			// Acknowledge every receipt, duplicates included: the ack
			// itself may have been lost.
			var ack [12]byte
			binary.LittleEndian.PutUint32(ack[0:], dgramAck)
			binary.LittleEndian.PutUint32(ack[4:], seq)
			binary.LittleEndian.PutUint32(ack[8:], uint32(u.rank))
			u.conn.WriteToUDP(ack[:], from)

			u.mu.Lock()
			if u.closed {
				u.mu.Unlock()
				return
			}
			peerSeen := u.seen[m.From]
			if peerSeen == nil {
				peerSeen = make(map[uint32]bool)
				u.seen[m.From] = peerSeen
			}
			if peerSeen[seq] {
				u.stats.Duplicates++
				u.mu.Unlock()
				continue
			}
			peerSeen[seq] = true
			u.mu.Unlock()
			u.recv <- m
		}
	}
}

func (u *UDP) retransmitLoop() {
	defer u.wg.Done()
	ticker := time.NewTicker(u.retransmit)
	defer ticker.Stop()
	for {
		select {
		case <-u.done:
			return
		case <-ticker.C:
			u.mu.Lock()
			type resend struct {
				pkt []byte
				to  int
			}
			var pending []resend
			for key, pkt := range u.unacked {
				var to, seq int
				fmt.Sscanf(key, "%d:%d", &to, &seq)
				pending = append(pending, resend{pkt: pkt, to: to})
			}
			u.stats.Retransmitted += len(pending)
			u.mu.Unlock()
			for _, r := range pending {
				if addr, err := u.peerAddr(r.to); err == nil {
					u.conn.WriteToUDP(r.pkt, addr)
				}
			}
		}
	}
}

// Close unpublishes the address and stops the loops.
func (u *UDP) Close() error {
	u.mu.Lock()
	if u.closed {
		u.mu.Unlock()
		return nil
	}
	u.closed = true
	u.mu.Unlock()
	close(u.done)
	u.reg.Unpublish(u.epoch, u.rank)
	u.conn.Close()
	u.wg.Wait()
	close(u.recv)
	return nil
}

// decodeFrame parses the standard frame layout from a byte slice.
func decodeFrame(b []byte) (Message, error) {
	if binary.LittleEndian.Uint32(b[0:]) != frameMagic {
		return Message{}, fmt.Errorf("msg: bad datagram magic")
	}
	m := Message{
		From:  int(binary.LittleEndian.Uint32(b[4:])),
		Step:  int(int32(binary.LittleEndian.Uint32(b[8:]))),
		Phase: int(int32(binary.LittleEndian.Uint32(b[12:]))),
		Dir:   int(int32(binary.LittleEndian.Uint32(b[16:]))),
	}
	n := int(binary.LittleEndian.Uint32(b[20:]))
	if n < 0 || headerBytes+8*n > len(b) {
		return Message{}, fmt.Errorf("msg: datagram payload length %d outside packet", n)
	}
	m.Data = make([]float64, n)
	for i := range m.Data {
		m.Data[i] = mathFloat64frombits(binary.LittleEndian.Uint64(b[headerBytes+8*i:]))
	}
	return m, nil
}
