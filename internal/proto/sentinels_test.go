package proto

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// exportedSentinelNames scans errors.go for every exported package-level
// variable whose name starts with "Err". Driving the round-trip test from
// the source keeps the wire-error table honest: adding a sentinel without
// registering it fails here, not in a cross-process debugging session.
func exportedSentinelNames(t *testing.T) []string {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "errors.go", nil, 0)
	if err != nil {
		t.Fatalf("parse errors.go: %v", err)
	}
	var names []string
	for _, decl := range file.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			continue
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, name := range vs.Names {
				if name.IsExported() && len(name.Name) > 3 && name.Name[:3] == "Err" {
					names = append(names, name.Name)
				}
			}
		}
	}
	if len(names) == 0 {
		t.Fatal("no exported Err* sentinels found in errors.go")
	}
	return names
}

// sentinelByName maps every exported sentinel name to its value. The
// completeness of this map is enforced against the source scan above.
var sentinelByName = map[string]error{
	"ErrSiteDown":        ErrSiteDown,
	"ErrDropped":         ErrDropped,
	"ErrSessionMismatch": ErrSessionMismatch,
	"ErrNotOperational":  ErrNotOperational,
	"ErrUnreadable":      ErrUnreadable,
	"ErrLockTimeout":     ErrLockTimeout,
	"ErrWounded":         ErrWounded,
	"ErrTxnAborted":      ErrTxnAborted,
	"ErrUnknownTxn":      ErrUnknownTxn,
	"ErrUnavailable":     ErrUnavailable,
	"ErrNoQuorum":        ErrNoQuorum,
	"ErrTotalFailure":    ErrTotalFailure,
	"ErrAbortRequested":  ErrAbortRequested,
	"ErrTxnFinished":     ErrTxnFinished,
	"ErrNoReplica":       ErrNoReplica,
	"ErrUnknownPolicy":   ErrUnknownPolicy,
}

// TestEverySentinelRoundTripsWire asserts that every exported proto.Err*
// sentinel (a) is registered in the wire-error table and (b) survives an
// encode → bytes → decode cycle with errors.Is intact, both bare and wrapped
// with caller context.
func TestEverySentinelRoundTripsWire(t *testing.T) {
	registered := make(map[error]bool)
	for _, s := range WireSentinels() {
		registered[s] = true
	}
	for _, name := range exportedSentinelNames(t) {
		sentinel, ok := sentinelByName[name]
		if !ok {
			t.Errorf("sentinel %s is exported from errors.go but missing from the test map; add it here and to the wire table", name)
			continue
		}
		if !registered[sentinel] {
			t.Errorf("sentinel %s is not registered in the wire-error table", name)
			continue
		}
		for _, err := range []error{
			sentinel,
			fmt.Errorf("site 3 serving txn 17: %w", sentinel),
		} {
			w, derr := DecodeError(EncodeError(err).Append(nil))
			if derr != nil {
				t.Fatalf("%s: decode wire error: %v", name, derr)
			}
			got := w.Err()
			if !errors.Is(got, sentinel) {
				t.Errorf("%s: errors.Is lost across the wire (%q -> %q)", name, err, got)
			}
			if got.Error() != err.Error() {
				t.Errorf("%s: message changed across the wire: %q -> %q", name, err, got)
			}
		}
	}
}

// TestNoReplicaWrapsUnavailable pins the compatibility contract of the PR 5
// sentinel split: ErrNoReplica must keep matching ErrUnavailable so retry
// classification and abort-reason labels are unchanged, and its wire code
// must be the more specific one.
func TestNoReplicaWrapsUnavailable(t *testing.T) {
	if !errors.Is(ErrNoReplica, ErrUnavailable) {
		t.Fatal("ErrNoReplica must wrap ErrUnavailable")
	}
	noReplica, unavailable := EncodeError(ErrNoReplica).Code, EncodeError(ErrUnavailable).Code
	if noReplica == 0 || unavailable == 0 || noReplica == unavailable {
		t.Fatalf("codes: ErrNoReplica %d, ErrUnavailable %d; want two distinct registered codes", noReplica, unavailable)
	}
	if w := EncodeError(fmt.Errorf("write %q: %w", "x", ErrNoReplica)); w.Code != noReplica {
		t.Fatalf("wrapped ErrNoReplica encoded as code %d, want %d (not ErrUnavailable's %d)", w.Code, noReplica, unavailable)
	}
	if w := EncodeError(fmt.Errorf("read %q: %w", "x", ErrUnavailable)); w.Code != unavailable {
		t.Fatalf("wrapped ErrUnavailable encoded as code %d, want %d", w.Code, unavailable)
	}
	got := (&WireError{Code: noReplica, Msg: "write: " + ErrNoReplica.Error()}).Err()
	if !errors.Is(got, ErrUnavailable) || !errors.Is(got, ErrNoReplica) {
		t.Fatalf("decoded no_replica error lost sentinel chain: %v", got)
	}
}
