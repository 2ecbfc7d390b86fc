package wal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"siterecovery/internal/rawio"
)

// FileName is the log's file in a site's state directory: one record per
// line, each the bytes json.Encoder.Encode writes for it.
const FileName = "wal.jsonl"

// Open opens the log kept in dir, creating both if absent, and returns it
// loaded and in service: the site's one stable file.
//
// The load reads the lines that were in the file at open and rebuilds the
// LSN, the indexes, the session counter and the redo ScanRedo hands over.
// An unterminated last line is a kill mid-append that was never
// acknowledged: it is dropped and truncated away, since the next append
// would otherwise extend it. Any other line that does not decode is refused,
// naming it.
//
// Every later force appends its batch with one write and one fsync, on raw
// syscalls when the file is on a memory file system (rawio.WrapFile). A
// participant's fsynced prepare record is the only durable copy of a write
// set it voted yes on, so a site that cannot persist must not keep voting: a
// write or sync error calls fail, which must not return, before the append
// does.
func Open(dir string, fail func(error)) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(filepath.Join(dir, FileName), os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	l := New()
	if err = l.load(f); err == nil {
		err = syncDir(dir) // the file's name is durable before a record is
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	l.file = f
	w := rawio.WrapFile(f) // the forces; the load and syncDir above stay on os
	var buf []byte         // the sink runs under l.mu, so one buffer serves every batch
	l.sink = func(recs []Record) {
		buf = buf[:0]
		for i := range recs {
			buf = appendRecordJSON(buf, &recs[i])
		}
		_, err := w.Write(buf)
		if err == nil {
			err = w.Sync()
		}
		if err != nil {
			fail(err)
		}
	}
	return l, nil
}

// load replays f's complete lines into l and truncates whatever follows the
// last of them. It reads only the bytes f held at open: a log file that is a
// device rather than a file (/dev/full, say) holds no records and would
// otherwise read forever.
func (l *Log) load(f *os.File) error {
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	br := bufio.NewReader(io.LimitReader(f, fi.Size()))
	var end int64
	for line := 1; ; line++ {
		b, err := br.ReadBytes('\n')
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		end += int64(len(b))
		if b = bytes.TrimRight(b, "\r\n"); len(b) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(b, &rec); err != nil {
			return fmt.Errorf("%s: line %d: %w", f.Name(), line, err)
		}
		l.index(&rec)
		if rec.Type == RecordRedo {
			l.redo = append(l.redo, rec)
		}
	}
	if end == fi.Size() {
		return nil
	}
	if err := f.Truncate(end); err != nil {
		return err
	}
	return f.Sync()
}

// syncDir fsyncs a directory, making the names created in it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close() // only read: Sync reports what matters
	return d.Sync()
}

// appendRecordJSON appends rec to dst exactly as json.Encoder.Encode writes
// it, trailing newline included, without reflection: one line per field.
func appendRecordJSON(dst []byte, rec *Record) []byte {
	dst = strconv.AppendInt(append(dst, `{"Type":`...), int64(rec.Type), 10)
	dst = strconv.AppendInt(append(dst, `,"Role":`...), int64(rec.Role), 10)
	dst = strconv.AppendUint(append(dst, `,"Txn":`...), uint64(rec.Txn), 10)
	dst = strconv.AppendUint(append(dst, `,"CommitSeq":`...), rec.CommitSeq, 10)
	dst = append(dst, `,"Writes":`...)
	if rec.Writes == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range rec.Writes {
			w := &rec.Writes[i]
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendJSONString(append(dst, `{"Item":`...), string(w.Item))
			dst = strconv.AppendInt(append(dst, `,"Value":`...), int64(w.Value), 10)
			dst = strconv.AppendBool(append(dst, `,"Refresh":`...), w.Refresh)
			dst = strconv.AppendUint(append(dst, `,"Version":{"Counter":`...), w.Version.Counter, 10)
			dst = strconv.AppendUint(append(dst, `,"Writer":`...), uint64(w.Version.Writer), 10)
			dst = append(dst, "}}"...)
		}
		dst = append(dst, ']')
	}
	dst = strconv.AppendInt(append(dst, `,"Origin":`...), int64(rec.Origin), 10)
	return append(dst, "}\n"...)
}

// appendJSONString quotes s. A byte outside printable ASCII, or one that
// encoding/json escapes, sends s through json.Marshal so escapes match it.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string always marshals
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}
