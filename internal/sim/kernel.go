// Package sim implements a deterministic discrete-event simulation kernel
// with cooperative goroutine-based processes.
//
// The kernel owns a virtual clock and an event queue. Processes are ordinary
// goroutines that run one at a time: exactly one of {kernel, some process}
// executes at any moment, and control is handed off explicitly. A process
// blocks in virtual time by calling Proc.Sleep or by waiting on a Signal;
// while it is blocked the kernel fires the next pending event. Because only
// one goroutine ever runs at a time and ties are broken by sequence number,
// simulations are exactly reproducible.
//
// The event queue is the simulator's hottest data structure, so it avoids
// the generic container/heap: events live in an inlined 4-ary indexed
// min-heap ordered by (time, seq), fired events are recycled through a
// free list instead of being reallocated, lazily-cancelled events are
// compacted away once they outnumber the live ones, and the common
// timer patterns — a deadline pushed back on every heartbeat, a periodic
// tick — reschedule their event in place (Event.Reschedule, Kernel.Every)
// rather than churning cancel + new allocation.
package sim

import (
	"fmt"
	"sort"
	"time"
)

// Kernel is a discrete-event simulator. The zero value is not usable; use
// NewKernel.
type Kernel struct {
	now    time.Duration
	seq    uint64
	events eventQueue
	// dead counts cancelled events still sitting in the queue; once they
	// outnumber the live ones the queue is compacted in one pass.
	dead int
	// ring is the fast lane for events scheduled at the current instant —
	// process wake-ups from Broadcast/Notify/Go, Yield, zero-delay sends,
	// the kernel's most common event by far. An event appended at the
	// then-current time necessarily sorts after everything already in the
	// ring (time never decreases, seq always increases), so the slice is
	// kept sorted by construction and popping its head is O(1) instead of
	// a heap sift. ringHead is the next slot to pop; ringDead counts
	// abandoned (nil) and cancelled entries at or after ringHead.
	ring     []*event
	ringHead int
	ringDead int
	free     *event // free list of recycled event structs
	// main wakes the Run goroutine when the dispatch baton (see dispatch)
	// finds no more events to fire.
	main  chan struct{}
	procs map[*Proc]struct{}
	// procSeq numbers processes in creation order so shutdown can kill
	// still-parked processes deterministically.
	procSeq uint64
	// fired counts events that actually ran (cancelled ones excluded) —
	// the numerator of the events/sec benchmark metric.
	fired   uint64
	running bool
	stopped bool
}

// NewKernel returns a kernel with the clock at zero and an empty event queue.
func NewKernel() *Kernel {
	return &Kernel{
		main:  make(chan struct{}, 1),
		procs: make(map[*Proc]struct{}),
	}
}

// Now returns the current virtual time (duration since simulation start).
func (k *Kernel) Now() time.Duration { return k.now }

// event is the kernel-internal representation of a scheduled callback. The
// struct is recycled through the kernel free list once fired or compacted
// away; gen is bumped on every recycle so stale Event handles become inert.
type event struct {
	at  time.Duration
	seq uint64
	fn  func()
	// proc, if non-nil, makes firing switch to the process directly — the
	// Sleep/Broadcast/Go resume path — without allocating a closure.
	proc *Proc
	// every > 0 marks a periodic event (Kernel.Every): after firing it is
	// rescheduled in place instead of being recycled.
	every time.Duration
	// index locates the event in a queue: >= 0 is a heap index, -1 means
	// not queued (firing, fired, or recycled), <= -2 encodes ring slot
	// -2-index.
	index     int32
	gen       uint32
	cancelled bool
	next      *event // free-list link
}

// Event is a cancellable handle to a scheduled callback. The zero value is
// an inert handle: Cancel is a no-op and Active reports false. Handles are
// generation-checked, so holding one past its event's firing is safe — it
// simply goes inert once the kernel recycles the event.
type Event struct {
	k   *Kernel
	e   *event
	gen uint32
}

// Active reports whether the event is still scheduled to fire: it has not
// fired (periodic events stay active across firings), been cancelled, or
// been discarded by shutdown.
func (ev Event) Active() bool {
	return ev.e != nil && ev.e.gen == ev.gen && !ev.e.cancelled && (ev.e.index != -1 || ev.e.every > 0)
}

// Cancel prevents the event from firing (again, for periodic events).
// Cancelling an already-fired, already-cancelled or zero-value handle is a
// no-op. Cancellation is lazy — the event stays queued until it is popped
// or compacted away — so it is O(1).
func (ev Event) Cancel() {
	e := ev.e
	if e == nil || e.gen != ev.gen || e.cancelled {
		return
	}
	e.cancelled = true
	if e.index >= 0 {
		ev.k.dead++
		ev.k.maybeCompact()
	} else if e.index <= -2 {
		ev.k.ringDead++
	}
}

// Reschedule moves a still-active event to absolute virtual time at,
// assigning it a fresh sequence number — exactly the ordering a cancel
// followed by a new At would produce, without the allocation or the dead
// queue entry. It panics if the event is no longer active or at is in the
// past; callers guard with Active.
func (ev Event) Reschedule(at time.Duration) {
	e := ev.e
	if !ev.Active() || e.index == -1 {
		panic("sim: Reschedule of inactive event")
	}
	k := ev.k
	if at < k.now {
		panic(fmt.Sprintf("sim: rescheduling event at %v before now %v", at, k.now))
	}
	e.seq = k.seq
	k.seq++
	e.at = at
	if e.index <= -2 {
		// Leaving the ring: abandon the slot (popping skips nils) and
		// requeue wherever the new time belongs.
		k.ring[-2-e.index] = nil
		k.ringDead++
		k.enqueue(e)
		return
	}
	k.events.fix(int(e.index))
}

// newEvent takes an event struct from the free list (or allocates one) and
// schedules it.
func (k *Kernel) newEvent(at time.Duration, fn func(), proc *Proc, every time.Duration) *event {
	if at < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, k.now))
	}
	e := k.free
	if e != nil {
		k.free = e.next
		e.next = nil
	} else {
		e = &event{}
	}
	e.at = at
	e.seq = k.seq
	k.seq++
	e.fn = fn
	e.proc = proc
	e.every = every
	e.cancelled = false
	k.enqueue(e)
	return e
}

// enqueue routes an event to the ring (scheduled at the current instant,
// where its fresh seq keeps the ring sorted by construction) or the heap.
func (k *Kernel) enqueue(e *event) {
	if e.at == k.now {
		e.index = int32(-2 - len(k.ring))
		k.ring = append(k.ring, e)
		return
	}
	k.events.push(e)
}

// recycle returns a fired or compacted event to the free list, bumping its
// generation so outstanding handles go inert.
func (k *Kernel) recycle(e *event) {
	e.gen++
	e.fn = nil
	e.proc = nil
	e.every = 0
	e.cancelled = false
	e.index = -1
	e.next = k.free
	k.free = e
}

// maybeCompact sweeps cancelled events out of the queue once they outnumber
// the live ones. Heartbeat-deadline and speculation-style timers cancel far
// more events than they fire; without compaction those corpses would sit in
// the heap for the rest of the run, taxing every push and pop.
func (k *Kernel) maybeCompact() {
	if n := len(k.events); k.dead*2 <= n || n < 64 {
		return
	}
	live := k.events[:0]
	for _, e := range k.events {
		if e.cancelled {
			k.recycle(e)
			continue
		}
		live = append(live, e)
	}
	for i := len(live); i < len(k.events); i++ {
		k.events[i] = nil
	}
	k.events = live
	k.events.heapify()
	k.dead = 0
}

// At schedules fn to run at absolute virtual time at. Scheduling in the past
// panics: it would break causality.
func (k *Kernel) At(at time.Duration, fn func()) Event {
	e := k.newEvent(at, fn, nil, 0)
	return Event{k: k, e: e, gen: e.gen}
}

// After schedules fn to run d from now.
func (k *Kernel) After(d time.Duration, fn func()) Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return k.At(k.now+d, fn)
}

// Every schedules fn to run every d of virtual time, first at now+d. The
// event reschedules itself in place after each firing — one queue entry and
// one struct for the whole series, rather than a cancel + fresh allocation
// per tick (the heartbeat/monitor-tick pattern). The series runs until the
// returned handle is cancelled; the handle stays valid across firings.
func (k *Kernel) Every(d time.Duration, fn func()) Event {
	if d <= 0 {
		panic(fmt.Sprintf("sim: non-positive period %v", d))
	}
	e := k.newEvent(k.now+d, fn, nil, d)
	return Event{k: k, e: e, gen: e.gen}
}

// afterProc schedules a direct process resume d from now — the Sleep /
// Signal / Go hot path, which needs no closure.
func (k *Kernel) afterProc(d time.Duration, p *Proc) *event {
	return k.newEvent(k.now+d, nil, p, 0)
}

// Run fires events in timestamp order (FIFO among equal timestamps) until the
// queue is empty or Stop is called, then kills any processes that are still
// parked so their goroutines exit. Run must be called from the goroutine that
// created the kernel, and must not be called from inside a process.
func (k *Kernel) Run() {
	if k.running {
		panic("sim: Run called re-entrantly")
	}
	k.running = true
	defer func() { k.running = false }()
	k.dispatch(nil, false)
	k.shutdown()
}

// dispatch runs the event loop on the calling goroutine — the "dispatch
// baton": exactly one goroutine in the simulation holds it and fires
// events. A parking process keeps firing events itself until the next
// process resume comes up; resuming self costs nothing, and resuming
// another process is one direct channel handoff. (The previous design
// bounced every switch through the kernel goroutine, doubling the channel
// handoffs on the simulator's hottest path.) Callback events run inline on
// whichever goroutine holds the baton; only one goroutine ever runs at a
// time, so they execute in kernel context either way.
//
// self is the calling process, or nil when called from Run. dispatch
// returns once self is next to run: its own resume event fired, or another
// baton holder handed back control (via self.resume, or k.main for Run).
// With exiting set the caller is a process goroutine about to exit — it
// passes the baton on and returns without ever blocking.
func (k *Kernel) dispatch(self *Proc, exiting bool) {
	for !k.stopped {
		e := k.nextEvent()
		if e == nil {
			break
		}
		if e.cancelled {
			k.recycle(e)
			continue
		}
		if e.at < k.now {
			panic("sim: event queue went backwards")
		}
		k.now = e.at
		k.fired++
		switch {
		case e.proc != nil:
			q := e.proc
			k.recycle(e)
			if q == self && !exiting {
				return
			}
			q.resume <- struct{}{}
			switch {
			case exiting:
				// The dying goroutine is done; the baton lives on in q.
			case self == nil:
				// Run waits for the baton to come home when the
				// simulation runs dry.
				<-k.main
			default:
				<-self.resume
			}
			return
		case e.every > 0:
			e.fn()
			if e.cancelled {
				// fn cancelled its own series mid-fire.
				k.recycle(e)
			} else {
				// Reschedule in place with a fresh seq, after fn so
				// anything fn scheduled at the next tick fires first.
				e.at += e.every
				e.seq = k.seq
				k.seq++
				k.events.push(e)
			}
		default:
			fn := e.fn
			k.recycle(e)
			fn()
		}
	}
	// Out of events (or Stop was called): hand the baton home to Run so it
	// can shut the simulation down; parked processes then wait to be killed.
	if self == nil {
		return
	}
	k.main <- struct{}{}
	if !exiting {
		<-self.resume
	}
}

// nextEvent pops the globally next event — the (time, seq) minimum across
// the ring fast lane and the heap — or nil when both are empty. Cancelled
// events are returned for the caller to recycle, with their dead-counter
// already settled.
func (k *Kernel) nextEvent() *event {
	for k.ringHead < len(k.ring) && k.ring[k.ringHead] == nil {
		k.ringHead++
		k.ringDead--
	}
	var r *event
	if k.ringHead < len(k.ring) {
		r = k.ring[k.ringHead]
	} else if k.ringHead > 0 {
		k.ring = k.ring[:0]
		k.ringHead = 0
	}
	if r != nil && (len(k.events) == 0 || !eventLess(k.events[0], r)) {
		k.ringHead++
		if r.cancelled {
			k.ringDead--
		}
		r.index = -1
		return r
	}
	if len(k.events) > 0 {
		e := k.events.pop()
		if e.cancelled {
			k.dead--
		}
		return e
	}
	return nil
}

// Stop makes Run return after the currently firing event completes. Remaining
// events are discarded and parked processes are killed.
func (k *Kernel) Stop() { k.stopped = true }

// PendingEvents returns the number of live (non-cancelled) events queued —
// introspection for tests and diagnostics.
func (k *Kernel) PendingEvents() int {
	return len(k.events) - k.dead + len(k.ring) - k.ringHead - k.ringDead
}

// FiredEvents returns the number of events that have run so far (process
// resumes, callbacks and periodic firings; cancelled events excluded).
// Benchmarks divide it by wall time for the kernel's events/sec figure.
func (k *Kernel) FiredEvents() uint64 { return k.fired }

// shutdown kills all parked processes so their goroutines exit, in process
// creation order: map iteration here would let shutdown-time side effects
// (deferred cleanups in killed processes) reorder between otherwise
// identical runs.
func (k *Kernel) shutdown() {
	parked := make([]*Proc, 0, len(k.procs))
	for p := range k.procs {
		parked = append(parked, p)
	}
	sort.Slice(parked, func(i, j int) bool { return parked[i].seq < parked[j].seq })
	for _, p := range parked {
		p.kill = true
		p.resume <- struct{}{}
		// The killed process unwinds and hands the baton back on k.main.
		<-k.main
	}
	k.events = nil
	k.free = nil
	k.dead = 0
	k.ring = nil
	k.ringHead = 0
	k.ringDead = 0
}

// Proc is a simulation process: a goroutine that advances only when the
// kernel hands it control, and blocks only in virtual time.
type Proc struct {
	k      *Kernel
	name   string
	seq    uint64
	resume chan struct{}
	kill   bool
}

// killed is the panic value used to unwind a process during shutdown.
type killed struct{}

// Go spawns a new process running fn. The process starts at the current
// virtual time, after already-scheduled events at this timestamp.
func (k *Kernel) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{k: k, name: name, seq: k.procSeq, resume: make(chan struct{}, 1)}
	k.procSeq++
	k.procs[p] = struct{}{}
	go func() {
		defer func() {
			delete(k.procs, p)
			if r := recover(); r != nil {
				if _, ok := r.(killed); ok {
					// Killed during shutdown: hand the baton back to
					// the shutdown loop.
					k.main <- struct{}{}
					return
				}
				panic(r)
			}
			// Normal exit: this goroutine still holds the baton — pass
			// it to the next event's owner without blocking.
			k.dispatch(p, true)
		}()
		<-p.resume
		if p.kill {
			panic(killed{})
		}
		fn(p)
	}()
	k.afterProc(0, p)
	return p
}

// Name returns the process name given to Go.
func (p *Proc) Name() string { return p.name }

// Kernel returns the kernel this process belongs to.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.k.now }

// park blocks the process until some event resumes it. The parking
// goroutine takes over event dispatch (see dispatch), so a process that is
// the next to run again resumes without any goroutine switch at all.
func (p *Proc) park() {
	p.k.dispatch(p, false)
	if p.kill {
		panic(killed{})
	}
}

// Park parks the process until another process or event schedules it with
// Kernel.Wake. Every Park must be matched by exactly one Wake; parking
// without a guaranteed waker deadlocks the simulation at shutdown. It is
// the single-waiter fast path underlying Signal, for callers that would
// otherwise allocate a Signal per wait.
func (p *Proc) Park() { p.park() }

// Wake schedules parked process p to resume at the current virtual time,
// after already-scheduled events at this timestamp — exactly like a
// single-waiter Signal.Broadcast.
func (k *Kernel) Wake(p *Proc) { k.afterProc(0, p) }

// Sleep blocks the process for d of virtual time.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative sleep %v", d))
	}
	p.k.afterProc(d, p)
	p.park()
}

// Yield reschedules the process at the current time, letting other events at
// this timestamp fire first.
func (p *Proc) Yield() { p.Sleep(0) }

// Signal is a virtual-time condition variable. The zero value is invalid;
// use NewSignal. Signals are not safe for use outside kernel/process context
// (they need no locking because only one goroutine runs at a time).
type Signal struct {
	k       *Kernel
	waiters []*Proc
}

// NewSignal returns a signal bound to k.
func NewSignal(k *Kernel) *Signal { return &Signal{k: k} }

// Wait parks p until Broadcast or Notify wakes it.
func (s *Signal) Wait(p *Proc) {
	s.waiters = append(s.waiters, p)
	p.park()
}

// Broadcast wakes all waiting processes. They resume at the current virtual
// time in the order they began waiting.
func (s *Signal) Broadcast() {
	ws := s.waiters
	s.waiters = nil
	for _, w := range ws {
		s.k.afterProc(0, w)
	}
}

// Notify wakes the longest-waiting process, if any. It reports whether a
// process was woken.
func (s *Signal) Notify() bool {
	if len(s.waiters) == 0 {
		return false
	}
	w := s.waiters[0]
	s.waiters = s.waiters[1:]
	s.k.afterProc(0, w)
	return true
}

// Pending returns the number of processes waiting on the signal.
func (s *Signal) Pending() int { return len(s.waiters) }

// eventQueue is an inlined 4-ary indexed min-heap of events ordered by
// (at, seq). 4-ary halves the depth of the binary heap the generic
// container/heap would give and keeps three of four children on the same
// cache line pair, and the concrete element type removes every interface
// call from push/pop — together the bulk of the kernel's 2x+ event
// throughput over the container/heap implementation it replaced.
type eventQueue []*event

// less orders events by (at, seq); seq breaks ties FIFO.
func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (q *eventQueue) push(e *event) {
	*q = append(*q, e)
	h := *q
	i := len(h) - 1
	e.index = int32(i)
	h.up(i)
}

func (q *eventQueue) pop() *event {
	h := *q
	n := len(h) - 1
	top := h[0]
	h[0] = h[n]
	h[0].index = 0
	h[n] = nil
	*q = h[:n]
	if n > 0 {
		(*q).down(0)
	}
	top.index = -1
	return top
}

// fix restores the heap property around index i after its event's key
// changed.
func (q eventQueue) fix(i int) {
	if !q.down(i) {
		q.up(i)
	}
}

// heapify rebuilds the heap property over the whole slice in O(n) — used
// after compaction.
func (q eventQueue) heapify() {
	for i := range q {
		q[i].index = int32(i)
	}
	for i := (len(q) - 2) / 4; i >= 0; i-- {
		q.down(i)
	}
}

func (q eventQueue) up(i int) {
	e := q[i]
	for i > 0 {
		parent := (i - 1) >> 2
		p := q[parent]
		if !eventLess(e, p) {
			break
		}
		q[i] = p
		p.index = int32(i)
		i = parent
	}
	q[i] = e
	e.index = int32(i)
}

// down sifts index i toward the leaves, reporting whether it moved.
func (q eventQueue) down(i int) bool {
	n := len(q)
	e := q[i]
	start := i
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if eventLess(q[c], q[min]) {
				min = c
			}
		}
		if !eventLess(q[min], e) {
			break
		}
		q[i] = q[min]
		q[i].index = int32(i)
		i = min
	}
	q[i] = e
	e.index = int32(i)
	return i > start
}
