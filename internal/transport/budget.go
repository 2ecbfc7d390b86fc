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
// Start it before use; Release it when the work is done. It must not be
// copied after Start.
type Budget struct {
	parent   context.Context
	deadline time.Time

	mu       sync.Mutex
	armed    context.Context
	cancel   context.CancelFunc
	released bool
}

// Start bounds parent by deadline.
func (b *Budget) Start(parent context.Context, deadline time.Time) {
	if d, ok := parent.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	b.parent, b.deadline = parent, deadline
}

// Deadline implements context.Context: exact from the start.
func (b *Budget) Deadline() (time.Time, bool) { return b.deadline, true }

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

// current returns the armed context, nil while nothing has asked for Done,
// and whether the budget was released.
func (b *Budget) current() (context.Context, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.armed, b.released
}

// Err implements context.Context without arming the budget.
func (b *Budget) Err() error {
	armed, released := b.current()
	switch {
	case armed != nil:
		return armed.Err()
	case released:
		return context.Canceled
	}
	if err := b.parent.Err(); err != nil {
		return err
	}
	if !time.Now().Before(b.deadline) {
		return context.DeadlineExceeded
	}
	return nil
}

// Value implements context.Context. Once armed it defers to the armed
// context, so a context derived from this one finds the standard library's
// cancellation parent in it and needs no goroutine to follow Done.
func (b *Budget) Value(key any) any {
	if armed, _ := b.current(); armed != nil {
		return armed.Value(key)
	}
	return b.parent.Value(key)
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
