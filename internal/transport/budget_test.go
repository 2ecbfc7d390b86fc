package transport_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"siterecovery/internal/transport"
)

// TestBudgetIsADeadlineContext: a Budget answers like context.WithDeadline's
// context — exact deadline, done at it, done with its parent, canceled by
// Release — whether or not anything asked for Done before the event, and a
// context derived from it follows it.
func TestBudgetIsADeadlineContext(t *testing.T) {
	type key struct{}
	parent := context.WithValue(context.Background(), key{}, "v")

	t.Run("unarmed", func(t *testing.T) {
		var b transport.Budget
		d := time.Now().Add(time.Hour)
		b.Start(parent, d)
		if got, ok := b.Deadline(); !ok || !got.Equal(d) {
			t.Fatalf("Deadline = %v, %v; want %v", got, ok, d)
		}
		if b.Err() != nil || b.Value(key{}) != "v" {
			t.Fatalf("Err = %v, Value = %v", b.Err(), b.Value(key{}))
		}
		b.Release()
		if !errors.Is(b.Err(), context.Canceled) {
			t.Fatalf("Err after Release = %v, want Canceled", b.Err())
		}
		select {
		case <-b.Done(): // armed after Release: done at once
		case <-time.After(time.Second):
			t.Fatal("Done after Release never closed")
		}
	})

	t.Run("deadline", func(t *testing.T) {
		var b transport.Budget
		b.Start(parent, time.Now().Add(20*time.Millisecond))
		child, cancel := context.WithCancel(&b)
		defer cancel()
		select {
		case <-child.Done():
		case <-time.After(5 * time.Second):
			t.Fatal("a derived context never saw the deadline")
		}
		if !errors.Is(b.Err(), context.DeadlineExceeded) {
			t.Fatalf("Err = %v, want DeadlineExceeded", b.Err())
		}
		b.Release()
	})

	t.Run("parent", func(t *testing.T) {
		p, cancel := context.WithCancel(parent)
		var b transport.Budget
		b.Start(p, time.Now().Add(time.Hour))
		cancel()
		if !errors.Is(b.Err(), context.Canceled) {
			t.Fatalf("unarmed Err after the parent's cancel = %v", b.Err())
		}
		<-b.Done()
		b.Release()
	})

	t.Run("earlier parent deadline", func(t *testing.T) {
		d := time.Now().Add(time.Minute)
		p, cancel := context.WithDeadline(parent, d)
		defer cancel()
		var b transport.Budget
		b.Start(p, d.Add(time.Hour))
		if got, _ := b.Deadline(); !got.Equal(d) {
			t.Fatalf("Deadline = %v, want the parent's %v", got, d)
		}
		b.Release()
	})
}
