package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/farm"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/dump"
	"repro/internal/msg"
)

// The wrappers below sit on the program's public interfaces; no program
// source changes. The span-recording ones (Program, Transport, timer)
// are installed only in a traced repetition, the Program one also when
// the sensitivity check injects its slowdown. farmJob, stepClock and
// ticker also run untraced: they record no spans there, only the job
// state and step times the untraced metrics need.

// tracedProgram wraps one rank's core.Program: Compute is a kernel phase
// span, Sends the halo pack and Unpack the halo unpack.
type tracedProgram struct {
	core.Program
	l      *lane // nil: only the slowdown is active
	phases []string
	kernel string
	cells  float64 // nodes of the rank
	bytes  float64 // the rank's state arrays, read and written once a step
	slow   bool
}

func wrapProgram(p core.Program, l *lane, kernel string, cells int, slow bool) *tracedProgram {
	tp := &tracedProgram{Program: p, l: l, kernel: kernel, cells: float64(cells), slow: slow}
	for ph := 0; ph < p.Phases(); ph++ {
		tp.phases = append(tp.phases, fmt.Sprintf("%s.phase%d", kernel, ph))
	}
	if l != nil {
		for _, f := range p.DumpState(0, 0).Fields {
			tp.bytes += 2 * 8 * float64(len(f))
		}
	}
	return tp
}

func (p *tracedProgram) Compute(ph int) {
	i := -1
	if p.l != nil {
		i = p.l.begin(p.phases[ph])
	}
	if p.slow {
		// Busy-work worth 20% of this Compute call: a slower kernel.
		t0 := time.Now()
		p.Program.Compute(ph)
		busyWork(time.Since(t0) / 5)
	} else {
		p.Program.Compute(ph)
	}
	if p.l == nil {
		return
	}
	p.l.end(i)
	if ph == 0 {
		p.l.add("kernel.cells", p.cells)
		p.l.add(p.kernel+".cells", p.cells)
		p.l.add("kernel.bytes_computed", p.bytes)
	}
}

func (p *tracedProgram) Sends(ph int) []core.Send {
	if p.l == nil {
		return p.Program.Sends(ph)
	}
	i := p.l.begin("halo.pack")
	out := p.Program.Sends(ph)
	p.l.end(i)
	for _, s := range out {
		p.l.add("halo.msgs", 1)
		p.l.add("halo.bytes", 8*float64(len(s.Data)))
	}
	return out
}

func (p *tracedProgram) Unpack(ph, dir int, data []float64) {
	if p.l == nil {
		p.Program.Unpack(ph, dir, data)
		return
	}
	i := p.l.begin("halo.unpack")
	p.Program.Unpack(ph, dir, data)
	p.l.end(i)
}

// busyRate is busyWork's loop iterations per nanosecond, calibrated once.
var busyRate = sync.OnceValue(func() float64 {
	const n = 1 << 20
	best := time.Duration(1 << 62)
	for range 5 {
		t0 := time.Now()
		busyLoop(n)
		best = min(best, time.Since(t0))
	}
	return n / float64(best)
})

// busyWork does about d of arithmetic. It counts work, not wall time, so
// a goroutine descheduled mid-way still does all of it.
func busyWork(d time.Duration) { busyLoop(int(float64(d) * busyRate())) }

var busySink float64

func busyLoop(n int) {
	x := 1.0
	for i := 0; i < n; i++ {
		x = x*0.9999999 + 1e-9
	}
	busySink = x
}

// tracedTransport wraps the msg.Transport a TransportFactory returns.
// step, when set, is the rank's current step, read on the rank's own
// goroutine to count messages that arrive early.
type tracedTransport struct {
	msg.Transport
	l    *lane
	step *int
}

func (t *tracedTransport) Send(m msg.Message) error {
	i := t.l.begin("msg.send")
	err := t.Transport.Send(m)
	t.l.end(i)
	t.l.add("msg.msgs", 1)
	t.l.add("msg.bytes", 8*float64(len(m.Data)))
	return err
}

func (t *tracedTransport) Recv() (msg.Message, error) {
	i := t.l.begin("msg.recv")
	m, err := t.Transport.Recv()
	t.l.end(i)
	if err == nil && t.step != nil && m.Step > *t.step {
		t.l.add("core.early_msgs", 1)
	}
	return m, err
}

// tracedFactory wraps every transport the factory opens. laneOf picks the
// lane of the goroutine that will use the transport.
func tracedFactory(inner core.TransportFactory, laneOf func(rank int) *lane, wrapped func(rank int, t *tracedTransport)) core.TransportFactory {
	return func(rank, epoch int) (msg.Transport, error) {
		t, err := inner(rank, epoch)
		if err != nil {
			return nil, err
		}
		tt := &tracedTransport{Transport: t, l: laneOf(rank)}
		if wrapped != nil {
			wrapped(rank, tt)
		}
		return tt, nil
	}
}

// stepClock times the integration steps of a job whose workers core
// runs: a rank starts sending step k's halo after finishing step k-1, so
// the latest first send of step k over the ranks marks the job finishing
// step k-1.
type stepClock struct {
	t0 time.Time
	mu sync.Mutex
	at map[int]int64 // step -> latest first-send time over the ranks, ns
}

func newStepClock(t0 time.Time) *stepClock { return &stepClock{t0: t0, at: map[int]int64{}} }

// factory wraps every transport the inner factory opens.
func (c *stepClock) factory(inner core.TransportFactory) core.TransportFactory {
	return func(rank, epoch int) (msg.Transport, error) {
		t, err := inner(rank, epoch)
		if err != nil {
			return nil, err
		}
		return &clockedTransport{Transport: t, c: c, step: -1}, nil
	}
}

// stepMs returns the job's step latencies, in step order.
func (c *stepClock) stepMs() []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	steps := make([]int, 0, len(c.at))
	for k := range c.at {
		steps = append(steps, k)
	}
	sort.Ints(steps)
	var out []float64
	for i := 1; i < len(steps); i++ {
		if steps[i] == steps[i-1]+1 {
			out = append(out, float64(c.at[steps[i]]-c.at[steps[i-1]])/1e6)
		}
	}
	return out
}

// clockedTransport reports a rank's first send of every step.
type clockedTransport struct {
	msg.Transport
	c    *stepClock
	step int
}

func (t *clockedTransport) Send(m msg.Message) error {
	if m.Step != t.step {
		t.step = m.Step
		now := int64(time.Since(t.c.t0))
		t.c.mu.Lock()
		if now > t.c.at[m.Step] {
			t.c.at[m.Step] = now
		}
		t.c.mu.Unlock()
	}
	return t.Transport.Send(m)
}

// farmJob wraps a farm.Workload. It tracks whether the job is running,
// so an interrupted farm's simulations can be stopped, and records a
// span per call when l is set.
type farmJob struct {
	farm.Workload
	l       *lane
	running bool
	// finished runs after a successful Finish.
	finished func()
}

func (j *farmJob) span(name string, f func() error) error {
	if j.l == nil {
		return f()
	}
	i := j.l.begin(name)
	err := f()
	j.l.end(i)
	return err
}

func (j *farmJob) Start(hosts []*cluster.Host) error {
	err := j.span("core.start", func() error { return j.Workload.Start(hosts) })
	j.running = err == nil
	return err
}

func (j *farmJob) Suspend() error {
	err := j.span("core.suspend", j.Workload.Suspend)
	if err == nil {
		j.running = false
	}
	return err
}

func (j *farmJob) Resume(hosts []*cluster.Host) error {
	err := j.span("core.resume", func() error { return j.Workload.Resume(hosts) })
	j.running = err == nil
	return err
}

func (j *farmJob) Migrate(ranks []int, hosts []*cluster.Host) error {
	return j.span("core.migrate", func() error { return j.Workload.Migrate(ranks, hosts) })
}

func (j *farmJob) Resize(shape decomp.Shape, hosts []*cluster.Host) error {
	return j.span("core.resize", func() error { return j.Workload.Resize(shape, hosts) })
}

func (j *farmJob) Finish() error {
	err := j.span("core.finish", j.Workload.Finish)
	if err == nil {
		j.running = false
		if j.finished != nil {
			j.finished()
		}
	}
	return err
}

func (j *farmJob) Checkpoint() ([]*dump.State, error) {
	var states []*dump.State
	err := j.span("core.snapshot", func() error {
		var err error
		states, err = j.Workload.Checkpoint()
		return err
	})
	return states, err
}

func (j *farmJob) Restore(states []*dump.State) error {
	return j.span("core.restore", func() error { return j.Workload.Restore(states) })
}

// tracedTimer wraps the farm's StepTimer.
func tracedTimer(l *lane, inner farm.StepTimer) farm.StepTimer {
	if l == nil {
		return inner
	}
	return func(spec farm.JobSpec, shape decomp.Shape, hosts []*cluster.Host) (float64, error) {
		i := l.begin("sched.timer")
		v, err := inner(spec, shape, hosts)
		l.end(i)
		return v, err
	}
}

// ticker wraps a WithScenario callback: it records the wall time between
// consecutive ticks (the farm's step latency) and, when l is set, a span
// per call.
type ticker struct {
	l      *lane
	last   time.Time
	stepMs []float64
}

func (tk *ticker) wrap(fn func(time.Duration, *cluster.Cluster)) func(time.Duration, *cluster.Cluster) {
	return func(t time.Duration, c *cluster.Cluster) {
		if now := time.Now(); !tk.last.IsZero() {
			tk.stepMs = append(tk.stepMs, float64(now.Sub(tk.last))/1e6)
		}
		spanned(tk.l, "sched.scenario", func() { fn(t, c) })
		tk.last = time.Now()
	}
}

// spanned runs f inside a span when l is set.
func spanned(l *lane, name string, f func()) {
	if l == nil {
		f()
		return
	}
	i := l.begin(name)
	f()
	l.end(i)
}

// eventLog drains a farm subscription on its own goroutine.
type eventLog struct {
	sub    *farm.Subscription
	events []farm.Event
	done   chan struct{}
}

func subscribe(f *farm.Farm) *eventLog {
	// The buffer holds a whole run's stream, so no event is dropped
	// while the drain goroutine is descheduled.
	e := &eventLog{sub: f.SubscribeBuffered(1 << 16), done: make(chan struct{})}
	go func() {
		defer close(e.done)
		for ev := range e.sub.Events() {
			e.events = append(e.events, ev)
		}
	}()
	return e
}

// wait returns the stream once the subscription has closed; detach ends
// a stream the farm would keep open (an interrupted run).
func (e *eventLog) wait(detach bool) ([]farm.Event, error) {
	if detach {
		e.sub.Close()
	}
	<-e.done
	if d := e.sub.Dropped(); d > 0 {
		return nil, fmt.Errorf("event stream dropped %d events", d)
	}
	return e.events, nil
}

// countEvents adds the scheduling decisions of a stream to l.
func countEvents(l *lane, events []farm.Event) {
	for _, ev := range events {
		switch ev.(type) {
		case farm.JobPlaced:
			l.add("sched.placed", 1)
		case farm.JobBackfilled:
			l.add("sched.backfilled", 1)
		case farm.JobPreempted:
			l.add("sched.preempted", 1)
		case farm.JobMigrated:
			l.add("sched.migrated", 1)
		case farm.JobResized:
			l.add("sched.resized", 1)
		}
	}
}
