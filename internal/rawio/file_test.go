package rawio_test

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"siterecovery/internal/rawio"
	"siterecovery/internal/rawio/rawiotest"
)

// pairIn opens two files in dir, returning the first as rawio.WrapFile makes
// it and the second as the os package's own, so a test can hold the wrapper
// to what os does. Both are opened with flag and closed when the test ends.
func pairIn(t *testing.T, dir string, flag int) (wrapped rawio.File, plain *os.File, f *os.File) {
	t.Helper()
	open := func(name string) *os.File {
		f, err := os.OpenFile(filepath.Join(dir, name), flag|os.O_CREATE, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		return f
	}
	f = open("wrapped")
	wrapped = rawio.WrapFile(f)
	if _, ok := wrapped.(*os.File); ok {
		t.Fatalf("%s came back unwrapped", f.Name())
	}
	return wrapped, open("plain"), f
}

func readFile(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// Every call returns what os returns for it and leaves the same bytes: an
// append, page writes past the end that leave a hole, a multi-megabyte write
// whose pieces must land in order, reads across and past the end, and a sync.
func TestFileDoesWhatOSDoes(t *testing.T) {
	w, p, f := pairIn(t, rawiotest.MemDir(t), os.O_RDWR)
	big := make([]byte, 3<<20+17)
	for i := range big {
		big[i] = byte(i * 7 / 5)
	}
	type result struct {
		n   int
		err error
		b   string
	}
	steps := []func(rawio.File) result{
		func(f rawio.File) result { n, err := f.Write([]byte("header\n")); return result{n: n, err: err} },
		func(f rawio.File) result {
			n, err := f.WriteAt(bytes.Repeat([]byte{'p'}, 4096), 8192)
			return result{n: n, err: err}
		},
		func(f rawio.File) result { n, err := f.WriteAt([]byte("mid"), 100); return result{n: n, err: err} },
		func(f rawio.File) result { return result{err: f.Sync()} },
		func(f rawio.File) result { n, err := f.WriteAt(big, 20000); return result{n: n, err: err} },
		func(f rawio.File) result {
			b := make([]byte, 64)
			n, err := f.ReadAt(b, 90)
			return result{n, err, string(b[:n])}
		},
		func(f rawio.File) result {
			b := make([]byte, 4096)
			n, err := f.ReadAt(b, int64(20000+len(big)-100))
			return result{n, err, string(b[:n])}
		},
		func(f rawio.File) result { n, err := f.ReadAt(make([]byte, 8), 1<<30); return result{n: n, err: err} },
		func(f rawio.File) result { n, err := f.ReadAt(nil, 1<<30); return result{n: n, err: err} },
		func(f rawio.File) result { n, err := f.Write([]byte("tail")); return result{n: n, err: err} },
		func(f rawio.File) result { return result{err: f.Sync()} },
	}
	for i, step := range steps {
		got, want := step(w), step(p)
		if got.n != want.n || got.err != want.err || got.b != want.b {
			t.Fatalf("step %d: wrapper gave (%d, %v, %d bytes), os (%d, %v, %d bytes)",
				i, got.n, got.err, len(got.b), want.n, want.err, len(want.b))
		}
	}
	if !bytes.Equal(readFile(t, f.Name()), readFile(t, p.Name())) {
		t.Fatal("the wrapped file's bytes differ from the os file's")
	}
}

// ReadAt past the end returns what it read and io.EOF, on either path, as
// os.File does; an empty read anywhere returns nothing and no error.
func TestReadAtPastEndIsEOF(t *testing.T) {
	rawiotest.Run(t, func(t *testing.T, dir string) {
		f, err := os.Create(filepath.Join(dir, "f"))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		r := rawio.WrapFile(f)
		if _, err := r.Write([]byte("0123456789")); err != nil {
			t.Fatal(err)
		}
		b := make([]byte, 16)
		if n, err := r.ReadAt(b, 4); n != 6 || err != io.EOF || string(b[:n]) != "456789" {
			t.Fatalf("ReadAt across the end = %d %q, %v; want 6 \"456789\", io.EOF", n, b[:n], err)
		}
		if n, err := r.ReadAt(b, 100); n != 0 || err != io.EOF {
			t.Fatalf("ReadAt past the end = %d, %v; want 0, io.EOF", n, err)
		}
		if n, err := r.ReadAt(b[:0], 100); n != 0 || err != nil {
			t.Fatalf("empty ReadAt past the end = %d, %v; want 0, nil", n, err)
		}
		var pe *os.PathError
		if _, err := r.ReadAt(b, -1); !errors.As(err, &pe) || pe.Op != "readat" || pe.Path != f.Name() {
			t.Fatalf("ReadAt at a negative offset = %v, want os's *os.PathError", err)
		}
	})
}

// A failed call is the *os.PathError os.File returns for it — same Op, the
// file's name, an error errors.Is matches — whether an errno fails it or the
// file is closed, so a fail-stop message still names the file.
func TestFileErrorsAreOSShaped(t *testing.T) {
	dir := rawiotest.MemDir(t)
	calls := map[string]func(rawio.File) error{
		"Write":   func(f rawio.File) error { _, err := f.Write([]byte("x")); return err },
		"WriteAt": func(f rawio.File) error { _, err := f.WriteAt([]byte("x"), 3); return err },
		"ReadAt":  func(f rawio.File) error { _, err := f.ReadAt(make([]byte, 1), 0); return err },
		"Sync":    func(f rawio.File) error { return f.Sync() },
	}
	check := func(state string, w rawio.File, name string, p *os.File, failures int) {
		t.Helper()
		failed := 0
		for call, do := range calls {
			got, want := do(w), do(p)
			var gp, wp *os.PathError
			if !errors.As(got, &gp) || !errors.As(want, &wp) {
				if got != nil || want != nil {
					t.Errorf("%s %s: wrapper %v, os %v", state, call, got, want)
				}
				continue
			}
			failed++
			if gp.Op != wp.Op || gp.Path != name || !errors.Is(got, wp.Err) {
				t.Errorf("%s %s: wrapper %#v, os %#v", state, call, gp, wp)
			}
		}
		if failed != failures {
			t.Errorf("%s: %d calls failed on both, want %d", state, failed, failures)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "wrapped"), []byte("data"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "plain"), []byte("data"), 0o644); err != nil {
		t.Fatal(err)
	}
	w, p, f := pairIn(t, dir, os.O_RDONLY) // writes fail with EBADF
	check("read-only", w, f.Name(), p, 2)
	f.Close()
	p.Close()
	check("closed", w, f.Name(), p, 4)
}

func TestFileAllocatesNothing(t *testing.T) {
	w, _, _ := pairIn(t, rawiotest.MemDir(t), os.O_RDWR)
	page, rec := make([]byte, 4096), []byte("record\n")
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
		if _, err := w.WriteAt(page, 4096); err != nil {
			t.Fatal(err)
		}
		if _, err := w.ReadAt(page, 4096); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a Write, Sync, WriteAt and ReadAt allocate %v times, want 0", allocs)
	}
}
