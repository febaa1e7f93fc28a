// Package core is the distributed simulation driver of sections 4-5: it
// binds a numerical method (finite differences or lattice Boltzmann), a
// static rectangular decomposition and a message transport into the
// parallel program whose cycle is "compute locally, communicate with
// neighbours".
//
// The paper's four control modules map onto this package as follows:
//
//   - initialization program  -> the caller builds a global initial state
//     (examples and cmd/fluidsim construct masks and fields);
//   - decomposition program   -> Decompose2D/Decompose3D, which produce one
//     dump.State per active subregion;
//   - job-submit program      -> Submit2D/Submit3D plus Coordinator.Start,
//     which place workers and open their communication channels;
//   - monitoring program      -> Coordinator.Monitor and the migration
//     protocol in coordinator.go.
//
// A Program is one parallel subprocess's view of the computation; Worker
// runs a Program against a Transport. The same Program code runs under the
// in-process channel transport, the TCP transport, and the serial
// reference executor, which is how the paper's "serial program = parallel
// program minus communication" modularity is expressed here.
package core

import (
	"fmt"

	"repro/internal/decomp"
	"repro/internal/dump"
)

// Program is one subprocess's computation: a numerical method bound to a
// subregion of a decomposition. Direction codes are opaque to the Worker;
// they only need to match between a sender's Sends and the receiving
// Program's Unpack.
type Program interface {
	// Rank returns the dense rank of the subregion.
	Rank() int
	// Phases returns the number of compute phases per integration step.
	Phases() int
	// Compute runs one local phase.
	Compute(phase int)
	// Sends returns the messages to emit after a phase. The returned
	// slice and its payloads are only valid until the next call.
	Sends(phase int) []Send
	// Expects returns the (peer, dirCode) pairs the Program must receive
	// after a phase before the next phase may start. Callers must not
	// modify the returned slice.
	Expects(phase int) []Expect
	// Unpack consumes a received payload for a phase and direction code.
	Unpack(phase int, dirCode int, data []float64)
	// DumpState serializes the full state for a dump file.
	DumpState(step, epoch int) *dump.State
	// RestoreState reloads a dump produced by DumpState.
	RestoreState(st *dump.State) error
}

// Send is one outgoing halo message.
type Send struct {
	Peer int // destination rank
	Dir  int // direction code from the receiver's perspective
	Data []float64
}

// Expect is one incoming halo message the Program waits for.
type Expect struct {
	Peer int
	Dir  int
}

// Method2D is the per-subregion interface both 2D solvers implement.
type Method2D interface {
	Phases() int
	Exchanges(phase int) bool
	Compute(phase int)
	Pack(phase int, dir decomp.Dir, buf []float64) []float64
	Unpack(phase int, dir decomp.Dir, buf []float64)
	Stencil() decomp.Stencil
	MethodName() string
	DumpFields() map[string][]float64
	RestoreFields(map[string][]float64) error
	// SetWorkers sets the intra-rank worker-slab budget for the compute
	// phases. Results are bit-identical at every value (see internal/pool).
	SetWorkers(n int)
}

// Program2D binds a Method2D to one subregion of a 2D decomposition.
type Program2D struct {
	M   Method2D
	D   *decomp.Decomp2D
	Sub *decomp.Subregion2D

	// The neighbour tables of an exchanging phase, one entry per
	// neighbour in decomp.Dirs order: the message to it (Data refilled
	// by every Sends call) and the message from it, whose Dir is the
	// direction the neighbour lies in. Every exchanging phase uses the
	// whole stencil.
	sends   []Send
	expects []Expect
	buf     []float64
}

// NewProgram2D builds the Program for the subregion with the given rank.
func NewProgram2D(m Method2D, d *decomp.Decomp2D, rank int) *Program2D {
	p := &Program2D{M: m, D: d, Sub: d.ByRank(rank)}
	for _, dir := range decomp.Dirs(m.Stencil()) {
		n := d.Neighbor(p.Sub, dir)
		if n == nil {
			continue
		}
		p.sends = append(p.sends, Send{Peer: n.Rank, Dir: int(dir.Opposite())})
		p.expects = append(p.expects, Expect{Peer: n.Rank, Dir: int(dir)})
	}
	return p
}

// Rank returns the subregion's dense rank.
func (p *Program2D) Rank() int { return p.Sub.Rank }

// Phases returns the method's phase count.
func (p *Program2D) Phases() int { return p.M.Phases() }

// Compute runs one local phase.
func (p *Program2D) Compute(phase int) { p.M.Compute(phase) }

// Sends packs one message per neighbour for exchanging phases. The
// direction code is the receiver's view: data sent toward dir arrives at
// the neighbour from dir.Opposite().
func (p *Program2D) Sends(phase int) []Send {
	if !p.M.Exchanges(phase) {
		return nil
	}
	p.buf = p.buf[:0]
	for i, e := range p.expects {
		start := len(p.buf)
		p.buf = p.M.Pack(phase, decomp.Dir(e.Dir), p.buf)
		p.sends[i].Data = p.buf[start:]
	}
	return p.sends
}

// Expects lists the messages due after an exchanging phase: one from every
// neighbour, identified by the direction it lies in.
func (p *Program2D) Expects(phase int) []Expect {
	if !p.M.Exchanges(phase) {
		return nil
	}
	return p.expects
}

// Unpack stores a received payload into the method's halo regions.
func (p *Program2D) Unpack(phase int, dirCode int, data []float64) {
	p.M.Unpack(phase, decomp.Dir(dirCode), data)
}

// DumpState serializes the subregion state.
func (p *Program2D) DumpState(step, epoch int) *dump.State {
	return &dump.State{
		Rank:   p.Sub.Rank,
		Step:   step,
		Epoch:  epoch,
		Method: p.M.MethodName(),
		NX:     p.Sub.NX, NY: p.Sub.NY, NZ: 1,
		Fields: p.M.DumpFields(),
	}
}

// RestoreState reloads a dump into the method.
func (p *Program2D) RestoreState(st *dump.State) error {
	if st.Method != p.M.MethodName() {
		return fmt.Errorf("core: dump method %q, solver is %q", st.Method, p.M.MethodName())
	}
	if st.NX != p.Sub.NX || st.NY != p.Sub.NY {
		return fmt.Errorf("core: dump geometry %dx%d, subregion is %dx%d",
			st.NX, st.NY, p.Sub.NX, p.Sub.NY)
	}
	return p.M.RestoreFields(st.Fields)
}

// Method3D is the per-subregion interface both 3D solvers implement. The
// per-phase face sets differ between the methods (the LB sweeps), so the
// interface exposes them explicitly.
type Method3D interface {
	Phases() int
	Exchanges(phase int) bool
	ExchangeDirs(phase int) []decomp.Dir3
	Compute(phase int)
	Pack(phase int, dir decomp.Dir3, buf []float64) []float64
	Unpack(phase int, dir decomp.Dir3, buf []float64)
	MethodName() string
	DumpFields() map[string][]float64
	RestoreFields(map[string][]float64) error
	// SetWorkers sets the intra-rank worker-slab budget for the compute
	// phases. Results are bit-identical at every value (see internal/pool).
	SetWorkers(n int)
}

// Program3D binds a Method3D to one box of a 3D decomposition.
type Program3D struct {
	M   Method3D
	D   *decomp.Decomp3D
	Sub *decomp.Subregion3D

	// Per-phase neighbour tables, indexed by phase, one entry per face
	// with a neighbour in ExchangeDirs order: the message to it (Data
	// refilled by every Sends call) and the message from it, whose Dir
	// is the face.
	sends   [][]Send
	expects [][]Expect
	buf     []float64
}

// NewProgram3D builds the Program for the box with the given rank.
func NewProgram3D(m Method3D, d *decomp.Decomp3D, rank int) *Program3D {
	p := &Program3D{M: m, D: d, Sub: d.ByRank(rank)}
	phases := m.Phases()
	p.sends = make([][]Send, phases)
	p.expects = make([][]Expect, phases)
	for ph := range phases {
		for _, dir := range m.ExchangeDirs(ph) {
			n := d.Neighbor(p.Sub, dir)
			if n == nil {
				continue
			}
			p.sends[ph] = append(p.sends[ph], Send{Peer: n.Rank, Dir: int(dir.Opposite())})
			p.expects[ph] = append(p.expects[ph], Expect{Peer: n.Rank, Dir: int(dir)})
		}
	}
	return p
}

// Rank returns the box's dense rank.
func (p *Program3D) Rank() int { return p.Sub.Rank }

// Phases returns the method's phase count.
func (p *Program3D) Phases() int { return p.M.Phases() }

// Compute runs one local phase.
func (p *Program3D) Compute(phase int) { p.M.Compute(phase) }

// Sends packs one message per exchanged face of the phase.
func (p *Program3D) Sends(phase int) []Send {
	p.buf = p.buf[:0]
	sends := p.sends[phase]
	for i, e := range p.expects[phase] {
		start := len(p.buf)
		p.buf = p.M.Pack(phase, decomp.Dir3(e.Dir), p.buf)
		sends[i].Data = p.buf[start:]
	}
	return sends
}

// Expects lists the per-face messages due after a phase.
func (p *Program3D) Expects(phase int) []Expect { return p.expects[phase] }

// Unpack stores a received payload into the method's halo regions.
func (p *Program3D) Unpack(phase int, dirCode int, data []float64) {
	p.M.Unpack(phase, decomp.Dir3(dirCode), data)
}

// DumpState serializes the box state.
func (p *Program3D) DumpState(step, epoch int) *dump.State {
	return &dump.State{
		Rank:   p.Sub.Rank,
		Step:   step,
		Epoch:  epoch,
		Method: p.M.MethodName(),
		NX:     p.Sub.NX, NY: p.Sub.NY, NZ: p.Sub.NZ,
		Fields: p.M.DumpFields(),
	}
}

// RestoreState reloads a dump into the method.
func (p *Program3D) RestoreState(st *dump.State) error {
	if st.Method != p.M.MethodName() {
		return fmt.Errorf("core: dump method %q, solver is %q", st.Method, p.M.MethodName())
	}
	if st.NX != p.Sub.NX || st.NY != p.Sub.NY || st.NZ != p.Sub.NZ {
		return fmt.Errorf("core: dump geometry %dx%dx%d, box is %dx%dx%d",
			st.NX, st.NY, st.NZ, p.Sub.NX, p.Sub.NY, p.Sub.NZ)
	}
	return p.M.RestoreFields(st.Fields)
}
