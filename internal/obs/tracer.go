package obs

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// DefaultTraceCapacity bounds the ring buffer when the caller does not
// choose one.
const DefaultTraceCapacity = 4096

// Tracer is a fixed-capacity ring buffer of Events. Appends are O(1) and
// never grow; when the buffer wraps, the oldest events are overwritten and
// counted as dropped, the count the hub's obs/events.dropped reports. The
// zero value is not usable; construct with NewTracer.
type Tracer struct {
	mu      sync.Mutex
	buf     []Event
	next    uint64 // sequence number of the next event
	dropped uint64
}

// NewTracer returns a tracer holding up to capacity events
// (DefaultTraceCapacity if non-positive).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{buf: make([]Event, 0, capacity)}
}

// append gives e the next sequence number, records it and hands it to
// sinks, all in one critical section: lamport (when set) is read into e in
// that step, so the Lamport stamps of one tracer's events never fall in
// sequence order, and every sink receives the events in sequence order.
// Neither lamport nor a sink may take a lock held by anyone emitting.
func (t *Tracer) append(e *Event, lamport func() uint64, sinks []Sink) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e.Seq = t.next
	t.next++
	if lamport != nil {
		e.Lamport = lamport()
	}
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, *e)
	} else {
		t.buf[int(e.Seq)%cap(t.buf)] = *e
		t.dropped++
	}
	for _, s := range sinks {
		s.Emit(*e)
	}
}

// Len reports how many events are currently buffered.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.buf)
}

// Dropped reports how many events were overwritten by ring wrap-around.
func (t *Tracer) Dropped() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Events returns the buffered events in sequence order.
func (t *Tracer) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, len(t.buf))
	if len(t.buf) < cap(t.buf) {
		return append(out, t.buf...)
	}
	// Full ring: the oldest surviving event sits where the next one will go.
	start := int(t.next) % cap(t.buf)
	out = append(out, t.buf[start:]...)
	return append(out, t.buf[:start]...)
}

// TextOptions tunes WriteText.
type TextOptions struct {
	// Times prefixes each event with its offset from the first buffered
	// event. Leave false for byte-identical output under the wall clock;
	// set true under a virtual clock, where offsets are deterministic.
	Times bool
}

// WriteText renders the buffered events one per line in sequence order.
func (t *Tracer) WriteText(w io.Writer, opts TextOptions) error {
	events := t.Events()
	var start time.Time
	if len(events) > 0 {
		start = events[0].At
	}
	for _, e := range events {
		var err error
		if opts.Times {
			_, err = fmt.Fprintf(w, "#%-5d %8s  %s\n", e.Seq, e.At.Sub(start), e.format())
		} else {
			_, err = fmt.Fprintf(w, "#%-5d %s\n", e.Seq, e.format())
		}
		if err != nil {
			return err
		}
	}
	if d := t.Dropped(); d > 0 {
		if _, err := fmt.Fprintf(w, "(%d earlier events dropped by ring wrap-around)\n", d); err != nil {
			return err
		}
	}
	return nil
}
