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
// and durably (fsynced temp file, rename, directory fsync); the log is
// append-only, one hand-encoded write and one fsync per batch. A kill can
// land mid-append, so the loader drops an unterminated last line and
// truncates it away: the sink's next append would otherwise extend it.

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

	f, err := os.OpenFile(filepath.Join(dir, "wal.jsonl"), os.O_RDWR, 0)
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
	var end int64
	st.Records, end, err = decodeWAL(io.LimitReader(f, fi.Size()))
	if err != nil {
		return nil, fmt.Errorf("statedir: wal.jsonl: %w", err)
	}
	if end < fi.Size() {
		if err := f.Truncate(end); err != nil {
			return nil, fmt.Errorf("statedir: %w", err)
		}
		if err := f.Sync(); err != nil {
			return nil, fmt.Errorf("statedir: %w", err)
		}
	}
	return st, nil
}

// decodeWAL reads the persisted log and the byte length of its complete
// lines. An unterminated final line is a torn append (a SIGKILL mid-write,
// never acknowledged) and is dropped; corruption anywhere else is refused.
func decodeWAL(r io.Reader) ([]wal.Record, int64, error) {
	var out []wal.Record
	var end int64
	br := bufio.NewReader(r)
	for line := 1; ; line++ {
		b, err := br.ReadBytes('\n')
		if err == io.EOF {
			return out, end, nil
		}
		if err != nil {
			return nil, 0, err
		}
		end += int64(len(b))
		b = bytes.TrimRight(b, "\r\n")
		if len(b) == 0 {
			continue
		}
		var rec wal.Record
		if err := json.Unmarshal(b, &rec); err != nil {
			return nil, 0, fmt.Errorf("line %d: %w", line, err)
		}
		out = append(out, rec)
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
	if err == nil {
		err = syncDir(st.dir)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("statedir: %w", err)
	}

	sessionPath := filepath.Join(st.dir, "session")
	sessionSink := func(s proto.Session) {
		if err := replaceFile(sessionPath, []byte(strconv.FormatUint(uint64(s), 10)+"\n")); err != nil {
			failStop("session", err)
		}
	}

	// The sink runs under wal.Log's mutex, so one buffer serves every batch.
	var buf []byte
	walSink := func(recs []wal.Record) {
		buf = buf[:0]
		for i := range recs {
			buf = wal.AppendRecordJSON(buf, &recs[i])
		}
		if _, err := walFile.Write(buf); err != nil {
			failStop("wal", err)
		}
		if err := walFile.Sync(); err != nil {
			failStop("wal", err)
		}
	}
	return sessionSink, walSink, nil
}

// replaceFile durably replaces path's contents: write and fsync a temp
// file, rename it over path, then fsync the directory holding both.
func replaceFile(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err = f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err == nil {
		err = syncDir(filepath.Dir(path))
	}
	return err
}

// syncDir fsyncs a directory, making the names created or renamed in it
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close() // only read: Sync reports what matters
	return d.Sync()
}

// failStop halts the site on a stable-storage failure.
func failStop(what string, err error) {
	fmt.Fprintf(os.Stderr, "srnode: statedir %s persist failed, site fail-stops: %v\n", what, err)
	os.Exit(1)
}
