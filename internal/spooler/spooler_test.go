package spooler

import (
	"context"
	"testing"

	"siterecovery/internal/proto"
)

func TestAppendDrainOrder(t *testing.T) {
	s := New()
	s.Append(3, proto.SpooledUpdate{Item: "x", Value: 2, CommitSeq: 20, Writer: 5})
	s.Append(3, proto.SpooledUpdate{Item: "x", Value: 1, CommitSeq: 10, Writer: 4})
	s.Append(4, proto.SpooledUpdate{Item: "y", Value: 9, CommitSeq: 15, Writer: 6})

	if s.Pending(3) != 2 || s.Pending(4) != 1 {
		t.Fatalf("Pending = (%d, %d)", s.Pending(3), s.Pending(4))
	}

	got := s.Drain(3)
	if len(got) != 2 || got[0].CommitSeq != 10 || got[1].CommitSeq != 20 {
		t.Fatalf("Drain = %+v, want commit order", got)
	}
	if s.Pending(3) != 0 {
		t.Fatal("Drain must clear")
	}
	if s.Pending(4) != 1 {
		t.Fatal("Drain must not touch other sites")
	}
}

func TestCrashWipesSpool(t *testing.T) {
	s := New()
	s.Append(3, proto.SpooledUpdate{Item: "x", CommitSeq: 1})
	s.Crash()
	if s.Pending(3) != 0 {
		t.Fatal("spool survived crash")
	}
}

func TestHandleWireProtocol(t *testing.T) {
	s := New()
	ctx := context.Background()

	s.Append(3, proto.SpooledUpdate{Item: "x", Value: 7, CommitSeq: 5, Writer: 9})
	resp, err := s.Handle(ctx, 3, proto.SpoolFetchReq{For: 3})
	if err != nil {
		t.Fatal(err)
	}
	fetch, ok := resp.(proto.SpoolFetchResp)
	if !ok || len(fetch.Updates) != 1 || fetch.Updates[0].Value != 7 {
		t.Fatalf("fetch = %#v", resp)
	}

	if _, err := s.Handle(ctx, 1, proto.ProbeReq{}); err == nil {
		t.Fatal("unknown message must error")
	}
}
