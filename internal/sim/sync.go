package sim

import (
	"fmt"
	"time"
)

// WaitGroup counts outstanding work in virtual time. Unlike sync.WaitGroup it
// may only be used from kernel/process context, and Wait blocks the calling
// process rather than the OS thread.
type WaitGroup struct {
	k     *Kernel
	count int
	done  *Signal
}

// NewWaitGroup returns a wait group bound to k.
func NewWaitGroup(k *Kernel) *WaitGroup {
	return &WaitGroup{k: k, done: NewSignal(k)}
}

// Add adds delta to the counter. The counter must not go negative.
func (wg *WaitGroup) Add(delta int) {
	wg.count += delta
	if wg.count < 0 {
		panic(fmt.Sprintf("sim: negative WaitGroup counter %d", wg.count))
	}
	if wg.count == 0 {
		wg.done.Broadcast()
	}
}

// Done decrements the counter by one.
func (wg *WaitGroup) Done() { wg.Add(-1) }

// Wait parks p until the counter reaches zero. Returns immediately if it is
// already zero.
func (wg *WaitGroup) Wait(p *Proc) {
	for wg.count > 0 {
		wg.done.Wait(p)
	}
}

// Count returns the current counter value.
func (wg *WaitGroup) Count() int { return wg.count }

// Semaphore is a counting semaphore in virtual time. Waiters acquire in FIFO
// order.
type Semaphore struct {
	k      *Kernel
	avail  int
	signal *Signal
}

// NewSemaphore returns a semaphore with n initial permits.
func NewSemaphore(k *Kernel, n int) *Semaphore {
	if n < 0 {
		panic(fmt.Sprintf("sim: negative semaphore size %d", n))
	}
	return &Semaphore{k: k, avail: n, signal: NewSignal(k)}
}

// Acquire takes one permit, parking p until one is available.
func (s *Semaphore) Acquire(p *Proc) {
	for s.avail == 0 {
		s.signal.Wait(p)
	}
	s.avail--
}

// Release returns one permit and wakes one waiter, if any.
func (s *Semaphore) Release() {
	s.avail++
	s.signal.Notify()
}

// Available returns the number of free permits.
func (s *Semaphore) Available() int { return s.avail }

// Mailbox is an unbounded FIFO message queue between processes. Receivers
// park until a message arrives. It models an asynchronous message channel
// (e.g. an RPC endpoint) in virtual time.
type Mailbox[T any] struct {
	k      *Kernel
	queue  []T
	arrive *Signal
}

// NewMailbox returns an empty mailbox bound to k.
func NewMailbox[T any](k *Kernel) *Mailbox[T] {
	return &Mailbox[T]{k: k, arrive: NewSignal(k)}
}

// Send enqueues msg after delay d (modelling transmission latency) and wakes
// one receiver. Send never blocks and may be called from event context.
func (m *Mailbox[T]) Send(d time.Duration, msg T) {
	m.k.After(d, func() {
		m.queue = append(m.queue, msg)
		m.arrive.Notify()
	})
}

// Recv dequeues the next message, parking p until one is available.
func (m *Mailbox[T]) Recv(p *Proc) T {
	for len(m.queue) == 0 {
		m.arrive.Wait(p)
	}
	msg := m.queue[0]
	m.queue = m.queue[1:]
	return msg
}

// TryRecv dequeues a message if one is queued, without blocking.
func (m *Mailbox[T]) TryRecv() (T, bool) {
	var zero T
	if len(m.queue) == 0 {
		return zero, false
	}
	msg := m.queue[0]
	m.queue = m.queue[1:]
	return msg, true
}

// Len returns the number of queued messages.
func (m *Mailbox[T]) Len() int { return len(m.queue) }
