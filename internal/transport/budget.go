package transport

import (
	"context"
	"sync"
	"time"
)

// Budget is a context done when its parent is or at its deadline, as
// context.WithDeadline's is, except that the timer, the done channel and the
// registration with the parent are made only when something first asks for
// Done. Most requests finish with nobody waiting on their context — a call
// to a peer bounds its own reads by the deadline, and a lock is seldom
// queued for — and a context.WithDeadline per request was a measurable
// share of a site's garbage. tcpnet serves every inbound request under one,
// and srnode every POST /txn.
//
// Start it before use; Release it when the work is done. A released Budget
// may be started again for the next piece of work, so an owner that serves
// one request after another keeps one: everything a method reads is behind
// its mutex, so a caller that kept the budget past its Release and asks it
// anything then sees whichever work it was last started for, without a
// race. It must not be copied after Start.
type Budget struct {
	mu       sync.Mutex
	parent   context.Context
	deadline time.Time
	armed    context.Context
	cancel   context.CancelFunc
	released bool
}

// Start bounds parent by deadline, as a budget nothing has armed or
// released yet.
func (b *Budget) Start(parent context.Context, deadline time.Time) {
	if d, ok := parent.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.parent, b.deadline = parent, deadline
	b.armed, b.cancel, b.released = nil, nil, false
}

// Deadline implements context.Context: exact from the start.
func (b *Budget) Deadline() (time.Time, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.deadline, true
}

// Done implements context.Context, arming the budget on first use.
func (b *Budget) Done() <-chan struct{} {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.armed == nil {
		b.armed, b.cancel = context.WithDeadline(b.parent, b.deadline)
		if b.released {
			b.cancel()
		}
	}
	return b.armed.Done()
}

// Err implements context.Context without arming the budget: an armed
// budget answers from its context, a released one is canceled, and an
// unarmed one compares its deadline with the clock.
func (b *Budget) Err() error {
	b.mu.Lock()
	armed, released, parent, deadline := b.armed, b.released, b.parent, b.deadline
	b.mu.Unlock()
	switch {
	case armed != nil:
		return armed.Err()
	case released:
		return context.Canceled
	}
	if err := parent.Err(); err != nil {
		return err
	}
	if !time.Now().Before(deadline) {
		return context.DeadlineExceeded
	}
	return nil
}

// Value implements context.Context.
func (b *Budget) Value(key any) any {
	b.mu.Lock()
	ctx := b.armed
	if ctx == nil {
		ctx = b.parent
	}
	b.mu.Unlock()
	return ctx.Value(key)
}

// Release ends the budget when its work is done: an armed budget is
// canceled now, and one armed later is canceled at once.
func (b *Budget) Release() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.released = true
	if b.cancel != nil {
		b.cancel()
	}
}
