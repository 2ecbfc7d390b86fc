package export

import (
	"bytes"
	"errors"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"siterecovery/internal/clock"
	"siterecovery/internal/obs"
	"siterecovery/internal/proto"
)

// TestJSONLRoundTripThroughHub streams a hub's emissions through the
// exporter and decodes them back, requiring a faithful copy of the ring.
func TestJSONLRoundTripThroughHub(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONL(&buf)
	h := obs.NewHub(obs.Options{
		Clock: clock.NewStep(time.Unix(0, 0).UTC(), time.Millisecond),
		Sinks: []obs.Sink{sink},
	})

	begun := h.TxnBegin(1, 7, proto.ClassUser, 1)
	h.SiteCrash(2)
	h.SiteDownObserved(1, 2, 1)
	h.TxnAbort(1, 7, proto.ClassUser, 1, begun, proto.ErrSiteDown)
	h.Control2(1, []proto.SiteID{2})
	h.RecoveryStart(2)
	h.RecoveryDone(2, 2, 5)
	h.CopierCopy(2, "item-3", 1)

	if err := sink.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if got, want := sink.Count(), uint64(8); got != want {
		t.Fatalf("exporter counted %d events, want %d", got, want)
	}
	if got := strings.Count(buf.String(), "\n"); got != 8 {
		t.Fatalf("export holds %d lines, want 8:\n%s", got, buf.String())
	}

	decoded, err := Decode(&buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	ring := h.Tracer().Events()
	if len(decoded) != len(ring) {
		t.Fatalf("decoded %d events, ring holds %d", len(decoded), len(ring))
	}
	for i := range ring {
		want, got := ring[i], decoded[i]
		if !got.At.Equal(want.At) {
			t.Errorf("event %d At = %v, want %v", i, got.At, want.At)
		}
		want.At, got.At = time.Time{}, time.Time{}
		if got != want {
			t.Errorf("event %d mismatch:\n got %+v\nwant %+v", i, got, want)
		}
	}
}

// TestJSONLFile exercises the Create/Close/DecodeFile file path.
func TestJSONLFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	sink, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	h := obs.NewHub(obs.Options{Sinks: []obs.Sink{sink}})
	h.Partitioned("[1]|[2,3]")
	h.Healed()
	if err := sink.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	events, err := DecodeFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[0].Type != obs.EvPartition || events[1].Type != obs.EvHeal {
		t.Fatalf("decoded %+v", events)
	}
}

// TestDecodeBadLine requires decode errors to name the offending line.
func TestDecodeBadLine(t *testing.T) {
	in := strings.NewReader(`{"seq":0,"type":"net.heal"}` + "\n\nnot json\n")
	_, err := Decode(in)
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("err = %v, want a line-3 decode error", err)
	}
}

// errWriter fails every write.
type errWriter struct{}

func (errWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// TestJSONLLatchesWriteError requires a failing writer to degrade to a
// latched error rather than disturbing emitters.
func TestJSONLLatchesWriteError(t *testing.T) {
	sink := NewJSONL(errWriter{})
	// Overflow the bufio buffer so the underlying writer is actually hit.
	big := obs.Event{Type: obs.EvPartition, Detail: strings.Repeat("x", 64*1024)}
	sink.Emit(big)
	sink.Emit(big)
	if err := sink.Flush(); err == nil {
		t.Fatal("flush reported no error after the writer failed")
	}
	if err := sink.Close(); err == nil {
		t.Fatal("close must keep reporting the latched error")
	}
}
