// Package msg is the custom messaging layer of section 4.2, replacing the
// paper's UNIX sockets with Go's net package (there is no MPI ecosystem in
// this reproduction; the transports below are the "custom RPC" substitute).
//
// Two transports implement the same interface:
//
//   - TCP: framed messages over real TCP connections on the loopback
//     interface, with the shared-file port registry handshake of the paper
//     ("I am listening at this port number ... Okay, the channel is open").
//     Connections stay open for the life of an epoch and are re-opened
//     after migrations, exactly as in section 4.2.
//
//   - Chan: in-process channels, used by tests and by the single-process
//     parallel runner; it preserves the same first-come-first-served
//     delivery semantics.
//
// Receive is FCFS across all peers (appendix C: asynchronous
// first-come-first-served communication via select outperforms strict
// ordering because delayed processes do not stall the others); the driver
// matches arrived messages to (step, phase, direction) slots itself.
//
// Send may buffer: a message is only guaranteed to be on its way once
// Flush returns. The TCP transport appends each frame to a per-peer buffer
// and Flush writes every buffer that holds frames in one write, so a
// worker that flushes once per phase pays one write per peer per phase,
// however many faces it shares with that peer. The channel and UDP
// transports deliver in Send and their Flush does nothing. Close discards
// frames sent but not flushed.
package msg

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"slices"
	"sync"
	"time"

	"repro/internal/registry"
)

// Message is one halo-exchange (or control) message between two parallel
// subprocesses.
type Message struct {
	From, To int
	Step     int // integration time step the payload belongs to
	Phase    int // solver phase within the step
	Dir      int // direction code, from the receiver's perspective
	Data     []float64
}

// ErrClosed is returned by Recv and Send after Close.
var ErrClosed = errors.New("msg: transport closed")

// Transport sends and receives messages between ranks.
type Transport interface {
	// Send queues m for rank m.To. It may buffer m until the next Flush,
	// may block briefly for flow control, but never waits for the
	// receiver to call Recv. The payload is copied or encoded before
	// Send returns, so the caller may reuse it.
	Send(m Message) error
	// Flush delivers every message sent since the last Flush. A worker
	// flushes once per phase, after the phase's sends and before it
	// waits for its neighbours.
	Flush() error
	// Recv blocks until any message arrives (FCFS over all peers).
	Recv() (Message, error)
	// Close tears the transport down; blocked Recv calls return ErrClosed.
	// Messages sent but not flushed are discarded.
	Close() error
}

// queueCap bounds in-flight messages per transport. The un-synchronization
// window of appendix A is (J-1)+(K-1) steps with <= 2 messages per step per
// neighbour, so real runs stay far below this.
const queueCap = 1024

// ---------------------------------------------------------------------------
// Channel transport

// Hub connects a set of in-process Chan transports.
type Hub struct {
	mu    sync.Mutex
	boxes map[int]chan Message
	wait  time.Duration // how long Send waits for a rank to join
}

// NewHub creates an empty hub; ranks join with Join.
func NewHub() *Hub {
	return &Hub{boxes: make(map[int]chan Message), wait: DialTimeout}
}

// Join registers a rank and returns its transport. Joining an occupied
// rank replaces the mailbox (used when a migrated worker rejoins).
func (h *Hub) Join(rank int) *Chan {
	h.mu.Lock()
	defer h.mu.Unlock()
	box := make(chan Message, queueCap)
	h.boxes[rank] = box
	return &Chan{hub: h, rank: rank, box: box}
}

func (h *Hub) lookup(rank int) (chan Message, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	c, ok := h.boxes[rank]
	return c, ok
}

// Chan is the in-process transport of one rank.
type Chan struct {
	hub  *Hub
	rank int
	box  chan Message

	mu     sync.Mutex
	closed bool
}

// Send delivers m to the mailbox of rank m.To. If the destination has not
// joined yet (it may be re-opening its channels after a migration), Send
// waits up to DialTimeout for it, mirroring the TCP transport's dial
// behaviour. Delivery does not wait for Flush.
func (c *Chan) Send(m Message) error {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return ErrClosed
	}
	box, ok := c.hub.lookup(m.To)
	if !ok {
		deadline := time.Now().Add(c.hub.wait)
		for !ok {
			if time.Now().After(deadline) {
				return fmt.Errorf("msg: rank %d not joined within %v", m.To, c.hub.wait)
			}
			time.Sleep(time.Millisecond)
			c.mu.Lock()
			closed := c.closed
			c.mu.Unlock()
			if closed {
				return ErrClosed
			}
			box, ok = c.hub.lookup(m.To)
		}
	}
	m.From = c.rank
	// Copy the payload: the sender reuses its pack buffer.
	m.Data = append([]float64(nil), m.Data...)
	box <- m
	return nil
}

// Flush does nothing: Send has already delivered.
func (c *Chan) Flush() error { return nil }

// Recv blocks until a message arrives.
func (c *Chan) Recv() (Message, error) {
	m, ok := <-c.box
	if !ok {
		return Message{}, ErrClosed
	}
	return m, nil
}

// Close closes the mailbox; pending messages are discarded.
func (c *Chan) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	c.hub.mu.Lock()
	if c.hub.boxes[c.rank] == c.box {
		delete(c.hub.boxes, c.rank)
	}
	c.hub.mu.Unlock()
	close(c.box)
	return nil
}

// ---------------------------------------------------------------------------
// TCP transport

const (
	// frame header: magic, from, step, phase, dir, payload length (in values).
	frameMagic  = 0x50415331 // "PAS1", after the paper's author
	headerBytes = 6 * 4

	// maxFrameValues rejects a header whose payload length no halo
	// message comes near.
	maxFrameValues = 1 << 26
	// maxPrealloc caps what readFrame allocates on the word of a header
	// alone (256 KiB, far above any halo face). A longer payload grows as
	// its bytes arrive, so a corrupt length cannot allocate memory that
	// nobody sent.
	maxPrealloc = 1 << 15
	// readBufBytes sizes each connection's read buffer, so that one read
	// takes in everything a peer flushed in a phase.
	readBufBytes = 64 << 10
)

// TCP is the real-socket transport. One goroutine per accepted connection
// reads frames into a single receive channel, which is the Go expression of
// the paper's select-based first-come-first-served receive loop.
type TCP struct {
	rank  int
	epoch int
	reg   *registry.Registry
	ln    net.Listener

	recv chan Message

	mu     sync.Mutex
	peers  map[int]*peerConn
	dirty  []*peerConn // peers with unflushed frames, in first-send order
	closed bool
	wg     sync.WaitGroup

	fmu      sync.Mutex  // serializes Flush
	flushing []*peerConn // Flush's copy of dirty, reused across flushes
}

type peerConn struct {
	rank int
	conn net.Conn
	wmu  sync.Mutex // guards wbuf and serializes writes to conn
	wbuf []byte     // frames sent since the last flush; reused
}

// DialTimeout bounds how long Send waits for a peer to publish its address
// and accept the connection.
const DialTimeout = 10 * time.Second

// NewTCP opens a listener on the loopback interface, publishes its address
// in the shared registry under (epoch, rank), and starts accepting peers.
func NewTCP(rank, epoch int, reg *registry.Registry) (*TCP, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("msg: rank %d listen: %w", rank, err)
	}
	if err := reg.Publish(epoch, rank, ln.Addr().String()); err != nil {
		ln.Close()
		return nil, err
	}
	t := &TCP{
		rank:  rank,
		epoch: epoch,
		reg:   reg,
		ln:    ln,
		recv:  make(chan Message, queueCap),
		peers: make(map[int]*peerConn),
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Rank returns the transport's rank (useful after restoring from a dump).
func (t *TCP) Rank() int { return t.rank }

// Addr returns the listening address.
func (t *TCP) Addr() string { return t.ln.Addr().String() }

func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		// Handshake: the dialer announces its rank.
		var hello [4]byte
		if _, err := io.ReadFull(conn, hello[:]); err != nil {
			conn.Close()
			continue
		}
		from := int(binary.LittleEndian.Uint32(hello[:]))
		pc := &peerConn{rank: from, conn: conn}
		t.mu.Lock()
		if old, ok := t.peers[from]; ok {
			old.conn.Close()
		}
		t.peers[from] = pc
		closed := t.closed
		t.mu.Unlock()
		if closed {
			conn.Close()
			return
		}
		t.wg.Add(1)
		go t.readLoop(conn)
	}
}

func (t *TCP) readLoop(conn net.Conn) {
	defer t.wg.Done()
	r := bufio.NewReaderSize(conn, readBufBytes)
	for {
		m, err := readFrame(r)
		if err != nil {
			return
		}
		m.To = t.rank
		t.mu.Lock()
		closed := t.closed
		t.mu.Unlock()
		if closed {
			return
		}
		t.recv <- m
	}
}

// dial returns the connection to a peer, establishing it on first use.
// To keep exactly one bidirectional channel per pair (the paper's FIFO
// channel), the lower rank dials and the higher rank waits for the
// incoming connection; without the tie-break, simultaneous cross-dials
// race and one side's connection gets torn down mid-message.
func (t *TCP) dial(to int) (*peerConn, error) {
	t.mu.Lock()
	if pc, ok := t.peers[to]; ok {
		t.mu.Unlock()
		return pc, nil
	}
	t.mu.Unlock()

	if t.rank > to {
		// The peer dials us; wait for its connection to be accepted.
		deadline := time.Now().Add(DialTimeout)
		for {
			t.mu.Lock()
			pc, ok := t.peers[to]
			closed := t.closed
			t.mu.Unlock()
			if closed {
				return nil, ErrClosed
			}
			if ok {
				return pc, nil
			}
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("msg: rank %d: no connection from rank %d within %v", t.rank, to, DialTimeout)
			}
			time.Sleep(time.Millisecond)
		}
	}

	addr, err := t.reg.Lookup(t.epoch, to, DialTimeout)
	if err != nil {
		return nil, err
	}
	conn, err := net.DialTimeout("tcp", addr, DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("msg: rank %d dial rank %d: %w", t.rank, to, err)
	}
	var hello [4]byte
	binary.LittleEndian.PutUint32(hello[:], uint32(t.rank))
	if _, err := conn.Write(hello[:]); err != nil {
		conn.Close()
		return nil, fmt.Errorf("msg: rank %d handshake with %d: %w", t.rank, to, err)
	}
	pc := &peerConn{rank: to, conn: conn}
	t.mu.Lock()
	t.peers[to] = pc
	closed := t.closed
	t.mu.Unlock()
	if closed {
		conn.Close()
		return nil, ErrClosed
	}
	// Read responses arriving on the dialed connection too.
	t.wg.Add(1)
	go t.readLoop(conn)
	return pc, nil
}

// Send frames m into the buffer of rank m.To's connection, dialing on
// first use. Nothing reaches the socket until Flush.
func (t *TCP) Send(m Message) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return ErrClosed
	}
	t.mu.Unlock()
	pc, err := t.dial(m.To)
	if err != nil {
		return err
	}
	m.From = t.rank
	pc.wmu.Lock()
	defer pc.wmu.Unlock()
	if len(pc.wbuf) == 0 {
		// Registered under wmu, so a Flush that starts after this Send
		// returns finds the peer.
		t.mu.Lock()
		t.dirty = append(t.dirty, pc)
		t.mu.Unlock()
	}
	pc.wbuf = appendFrame(pc.wbuf, m)
	return nil
}

// Flush writes every peer's buffered frames, one write per peer. It tries
// every peer and returns the first write error.
func (t *TCP) Flush() error {
	t.fmu.Lock()
	defer t.fmu.Unlock()
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return ErrClosed
	}
	t.flushing = append(t.flushing[:0], t.dirty...)
	t.dirty = t.dirty[:0]
	t.mu.Unlock()
	var first error
	for _, pc := range t.flushing {
		pc.wmu.Lock()
		_, err := pc.conn.Write(pc.wbuf)
		pc.wbuf = pc.wbuf[:0]
		pc.wmu.Unlock()
		if err != nil && first == nil {
			first = fmt.Errorf("msg: rank %d write to rank %d: %w", t.rank, pc.rank, err)
		}
	}
	return first
}

// Recv blocks until any peer delivers a message (FCFS).
func (t *TCP) Recv() (Message, error) {
	m, ok := <-t.recv
	if !ok {
		return Message{}, ErrClosed
	}
	return m, nil
}

// Close unpublishes the address, closes the listener and all connections,
// and releases blocked receivers. Frames not yet flushed are discarded.
// It is the "close their TCP/IP communication channels" step of the
// migration protocol.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	peers := t.peers
	t.peers = map[int]*peerConn{}
	t.dirty = nil
	t.mu.Unlock()

	t.reg.Unpublish(t.epoch, t.rank)
	t.ln.Close()
	for _, pc := range peers {
		pc.conn.Close()
	}
	t.wg.Wait()
	close(t.recv)
	return nil
}

// appendFrame appends m's frame, a fixed header plus float64 payload, to
// dst.
func appendFrame(dst []byte, m Message) []byte {
	n := len(dst)
	size := headerBytes + 8*len(m.Data)
	dst = slices.Grow(dst, size)[:n+size]
	b := dst[n:]
	le := binary.LittleEndian
	le.PutUint32(b[0:], frameMagic)
	le.PutUint32(b[4:], uint32(m.From))
	le.PutUint32(b[8:], uint32(int32(m.Step)))
	le.PutUint32(b[12:], uint32(int32(m.Phase)))
	le.PutUint32(b[16:], uint32(int32(m.Dir)))
	le.PutUint32(b[20:], uint32(len(m.Data)))
	p := b[headerBytes:]
	for i, v := range m.Data {
		le.PutUint64(p[8*i:], math.Float64bits(v))
	}
	return dst
}

// readFrame decodes one frame. The payload is decoded straight out of r's
// buffer into the returned slice, the frame's only allocation. A stream
// that ends at a frame boundary returns io.EOF; one that ends inside a
// frame returns io.ErrUnexpectedEOF.
func readFrame(r *bufio.Reader) (Message, error) {
	hdr, err := r.Peek(headerBytes)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return Message{}, err
	}
	le := binary.LittleEndian
	if magic := le.Uint32(hdr[0:]); magic != frameMagic {
		return Message{}, fmt.Errorf("msg: bad frame magic %#x", magic)
	}
	m := Message{
		From:  int(le.Uint32(hdr[4:])),
		Step:  int(int32(le.Uint32(hdr[8:]))),
		Phase: int(int32(le.Uint32(hdr[12:]))),
		Dir:   int(int32(le.Uint32(hdr[16:]))),
	}
	n := int(le.Uint32(hdr[20:]))
	if n < 0 || n > maxFrameValues {
		return Message{}, fmt.Errorf("msg: implausible payload length %d", n)
	}
	r.Discard(headerBytes) // buffered: cannot fail
	m.Data = make([]float64, 0, min(n, maxPrealloc))
	for len(m.Data) < n {
		k := min(n-len(m.Data), r.Size()/8)
		b, err := r.Peek(8 * k)
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return Message{}, err
		}
		i0 := len(m.Data)
		m.Data = slices.Grow(m.Data, k)[:i0+k]
		dst := m.Data[i0:]
		for i := range dst {
			dst[i] = math.Float64frombits(le.Uint64(b[8*i:]))
		}
		r.Discard(8 * k) // peeked: cannot fail
	}
	return m, nil
}
