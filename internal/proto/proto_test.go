package proto

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
)

func TestNSItemRoundTrip(t *testing.T) {
	for _, k := range []SiteID{1, 2, 7, 42, 1000} {
		item := NSItem(k)
		got, ok := IsNSItem(item)
		if !ok || got != k {
			t.Errorf("IsNSItem(NSItem(%d)) = (%d, %v), want (%d, true)", k, got, ok, k)
		}
	}
}

func TestNSItemRoundTripProperty(t *testing.T) {
	f := func(k uint16) bool {
		site := SiteID(k)
		got, ok := IsNSItem(NSItem(site))
		return ok && got == site
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIsNSItemRejectsOrdinaryItems(t *testing.T) {
	tests := []Item{"x", "account:7", "", "ns", "ns:", "ns:abc", "NS:3"}
	for _, item := range tests {
		if _, ok := IsNSItem(item); ok {
			t.Errorf("IsNSItem(%q) = true, want false", item)
		}
	}
}

func TestVersionLess(t *testing.T) {
	tests := []struct {
		v, w Version
		want bool
	}{
		{Version{Counter: 1, Writer: 5}, Version{Counter: 2, Writer: 1}, true},
		{Version{Counter: 2, Writer: 1}, Version{Counter: 1, Writer: 5}, false},
		{Version{Counter: 3, Writer: 1}, Version{Counter: 3, Writer: 2}, true},
		{Version{Counter: 3, Writer: 2}, Version{Counter: 3, Writer: 2}, false},
	}
	for _, tt := range tests {
		if got := tt.v.Less(tt.w); got != tt.want {
			t.Errorf("(%v).Less(%v) = %v, want %v", tt.v, tt.w, got, tt.want)
		}
	}
}

func TestVersionOrderIsTotalOnDistinct(t *testing.T) {
	f := func(c1, c2 uint32, w1, w2 uint16) bool {
		v := Version{Counter: uint64(c1), Writer: TxnID(w1)}
		w := Version{Counter: uint64(c2), Writer: TxnID(w2)}
		if v == w {
			return !v.Less(w) && !w.Less(v)
		}
		// exactly one direction holds
		return v.Less(w) != w.Less(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTxnClassString(t *testing.T) {
	tests := []struct {
		class TxnClass
		want  string
	}{
		{ClassUser, "user"},
		{ClassCopier, "copier"},
		{ClassControl1, "control1"},
		{ClassControl2, "control2"},
		{ClassInitial, "initial"},
		{ClassFinal, "final"},
		{TxnClass(99), "class(99)"},
	}
	for _, tt := range tests {
		if got := tt.class.String(); got != tt.want {
			t.Errorf("TxnClass(%d).String() = %q, want %q", tt.class, got, tt.want)
		}
	}
}

func TestIsControl(t *testing.T) {
	if !ClassControl1.IsControl() || !ClassControl2.IsControl() {
		t.Error("control classes must report IsControl")
	}
	for _, c := range []TxnClass{ClassUser, ClassCopier, ClassInitial, ClassFinal} {
		if c.IsControl() {
			t.Errorf("%v.IsControl() = true, want false", c)
		}
	}
}

func TestRetryable(t *testing.T) {
	retryable := []error{
		ErrSiteDown, ErrDropped, ErrSessionMismatch, ErrLockTimeout,
		ErrWounded, ErrNotOperational, ErrTxnAborted, ErrNoQuorum,
		ErrUnreadable, ErrUnavailable,
	}
	for _, err := range retryable {
		if !Retryable(err) {
			t.Errorf("Retryable(%v) = false, want true", err)
		}
		wrapped := fmt.Errorf("op read x at site3: %w", err)
		if !Retryable(wrapped) {
			t.Errorf("Retryable(wrapped %v) = false, want true", err)
		}
	}
	for _, err := range []error{ErrTotalFailure, ErrAbortRequested, ErrUnknownTxn, errors.New("other")} {
		if Retryable(err) {
			t.Errorf("Retryable(%v) = true, want false", err)
		}
	}
}

func TestStringers(t *testing.T) {
	if got := SiteID(3).String(); got != "site3" {
		t.Errorf("SiteID(3) = %q", got)
	}
	if got := TxnID(17).String(); got != "t17" {
		t.Errorf("TxnID(17) = %q", got)
	}
	if got := (Version{Counter: 4, Writer: 9}).String(); got != "v4/t9" {
		t.Errorf("Version = %q", got)
	}
	states := map[TxnState]string{
		StateUnknown: "unknown", StatePrepared: "prepared",
		StateCommitted: "committed", StateAborted: "aborted",
		TxnState(42): "state(42)",
	}
	for s, want := range states {
		if got := s.String(); got != want {
			t.Errorf("TxnState(%d).String() = %q, want %q", s, got, want)
		}
	}
}

func TestMessageKindsAreUniqueAndStable(t *testing.T) {
	msgs := []Message{
		ReadReq{}, ReadResp{}, WriteReq{}, WriteResp{}, BatchReq{}, BatchResp{},
		PrepareReq{}, PrepareResp{}, CommitReq{}, CommitResp{},
		AbortReq{}, AbortResp{}, DecisionReq{}, DecisionResp{},
		ProbeReq{}, ProbeResp{}, MissedFetchReq{}, MissedFetchResp{},
		SpoolFetchReq{}, SpoolFetchResp{},
	}
	seen := make(map[string]bool, len(msgs))
	for _, m := range msgs {
		k := m.Kind()
		if k == "" {
			t.Errorf("%T has empty kind", m)
		}
		if seen[k] {
			t.Errorf("duplicate message kind %q", k)
		}
		seen[k] = true
	}
	for _, k := range retiredKinds {
		if seen[k] {
			t.Errorf("message kind %q is retired and must not be reused", k)
		}
	}
}
