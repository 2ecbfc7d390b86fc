package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"siterecovery/internal/proto"
	"siterecovery/internal/wal"
)

// Stable state (-statedir): the slice of a site's state the paper requires
// to survive a real crash, persisted so a SIGKILLed srnode process restarts
// correctly.
//
//   - `session`: the §3.1 session counter. Uniqueness of session numbers in
//     a site's history is what makes stale operations detectable; a killed
//     process that restarted the counter from scratch would re-claim an
//     already-used session number.
//   - `wal.jsonl`: the 2PC log, one record per line. A restarted
//     coordinator must answer decision queries from its durable log
//     (cooperative termination, §3.4) — with an empty log it would presume
//     abort on transactions whose participants already committed.
//
// Data pages are deliberately NOT persisted: they are the paper's
// "out-of-date copies", rebuilt from live peers by the copiers under the
// chosen identification strategy. The counter file is replaced atomically
// (write + rename); the log is append-only with a sync per batch, and its
// loader tolerates a torn final line the same way the trace decoder does —
// a kill can land mid-append.

// stableState is the on-disk state a restarting srnode reloads.
type stableState struct {
	dir     string
	Session proto.Session
	Records []wal.Record
}

// loadState reads dir (creating it if absent) and returns what a previous
// incarnation persisted there.
func loadState(dir string) (*stableState, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("statedir: %w", err)
	}
	st := &stableState{dir: dir}

	if b, err := os.ReadFile(filepath.Join(dir, "session")); err == nil {
		v, perr := strconv.ParseUint(strings.TrimSpace(string(b)), 10, 64)
		if perr != nil {
			return nil, fmt.Errorf("statedir: corrupt session file: %w", perr)
		}
		st.Session = proto.Session(v)
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("statedir: %w", err)
	}

	f, err := os.Open(filepath.Join(dir, "wal.jsonl"))
	if os.IsNotExist(err) {
		return st, nil
	}
	if err != nil {
		return nil, fmt.Errorf("statedir: %w", err)
	}
	defer f.Close()
	// Read what was durable at open and no further: a wal.jsonl that is a
	// device rather than a file (the fail-stop test points it at /dev/full)
	// holds no records and would otherwise read forever.
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("statedir: %w", err)
	}
	st.Records, err = decodeWAL(io.LimitReader(f, fi.Size()))
	if err != nil {
		return nil, fmt.Errorf("statedir: wal.jsonl: %w", err)
	}
	return st, nil
}

// decodeWAL reads the persisted log, dropping an unterminated torn final
// line (a SIGKILL mid-append) but rejecting corruption anywhere else.
func decodeWAL(r io.Reader) ([]wal.Record, error) {
	var out []wal.Record
	br := bufio.NewReader(r)
	line := 0
	for {
		b, err := br.ReadBytes('\n')
		if err != nil && err != io.EOF {
			return nil, err
		}
		atEOF := err == io.EOF
		terminated := len(b) > 0 && b[len(b)-1] == '\n'
		if len(b) > 0 {
			line++
		}
		b = bytes.TrimRight(b, "\r\n")
		if len(b) > 0 {
			var rec wal.Record
			if uerr := json.Unmarshal(b, &rec); uerr != nil {
				if atEOF && !terminated {
					return out, nil // torn tail from a killed appender
				}
				return nil, fmt.Errorf("line %d: %w", line, uerr)
			}
			out = append(out, rec)
		}
		if atEOF {
			return out, nil
		}
	}
}

// sinks opens the persistence side: a session sink replacing the counter
// file atomically per advance, and a WAL sink appending one JSON line per
// record with one sync per batch. A participant's fsynced prepare record is
// the only durable copy of a write set it voted yes on, so a site that
// cannot persist must not keep voting: any write, sync or rename error
// fail-stops the process (the paper's failure model) before the append
// returns, and therefore before the vote or acknowledgement goes out.
func (st *stableState) sinks() (func(proto.Session), func([]wal.Record), error) {
	walFile, err := os.OpenFile(filepath.Join(st.dir, "wal.jsonl"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("statedir: %w", err)
	}

	sessionPath := filepath.Join(st.dir, "session")
	sessionSink := func(s proto.Session) {
		tmp := sessionPath + ".tmp"
		if err := os.WriteFile(tmp, []byte(strconv.FormatUint(uint64(s), 10)+"\n"), 0o644); err != nil {
			failStop("session", err)
		}
		if err := os.Rename(tmp, sessionPath); err != nil {
			failStop("session", err)
		}
	}

	walSink := func(recs []wal.Record) {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for _, rec := range recs {
			if err := enc.Encode(rec); err != nil {
				failStop("wal", err)
			}
		}
		if _, err := walFile.Write(buf.Bytes()); err != nil {
			failStop("wal", err)
		}
		if err := walFile.Sync(); err != nil {
			failStop("wal", err)
		}
	}
	return sessionSink, walSink, nil
}

// failStop halts the site on a stable-storage failure.
func failStop(what string, err error) {
	fmt.Fprintf(os.Stderr, "srnode: statedir %s persist failed, site fail-stops: %v\n", what, err)
	os.Exit(1)
}
