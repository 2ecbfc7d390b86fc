package rawio_test

import (
	"errors"
	"math/bits"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"siterecovery/internal/rawio"
	"siterecovery/internal/rawio/rawiotest"
)

// memFS reports whether dir is on tmpfs or ramfs, asked of the path.
func memFS(t *testing.T, dir string) bool {
	t.Helper()
	var fs syscall.Statfs_t
	if err := syscall.Statfs(dir, &fs); err != nil {
		t.Fatal(err)
	}
	return uint32(fs.Type) == 0x01021994 || uint32(fs.Type) == 0x858458f6
}

func wrapped(t *testing.T, name string, flag int) bool {
	t.Helper()
	f, err := os.OpenFile(name, flag, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	_, plain := rawio.WrapFile(f).(*os.File)
	return !plain
}

// WrapFile goes by the descriptor: a regular file on a memory file system is
// wrapped (on 64-bit platforms), a file on any other file system is not, and
// neither is a directory or the device behind a symlink on tmpfs — the
// /dev/full a test points wal.jsonl at.
func TestWrapFileClassifies(t *testing.T) {
	if !memFS(t, rawiotest.Root) {
		t.Skipf("%s is not a memory file system", rawiotest.Root)
	}
	shm, err := os.MkdirTemp(rawiotest.Root, "rawio-")
	if err != nil {
		t.Skip(err)
	}
	defer os.RemoveAll(shm)

	if got, want := wrapped(t, filepath.Join(shm, "wal.jsonl"), os.O_RDWR|os.O_CREATE|os.O_APPEND), bits.UintSize == 64; got != want {
		t.Errorf("regular file on tmpfs wrapped = %v, want %v", got, want)
	}
	if wrapped(t, shm, os.O_RDONLY) {
		t.Error("directory on tmpfs wrapped")
	}
	link := filepath.Join(shm, "full")
	if err := os.Symlink("/dev/full", link); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat("/dev/full"); err == nil && wrapped(t, link, os.O_RDWR|os.O_APPEND) {
		t.Error("/dev/full behind a symlink on tmpfs wrapped")
	}

	for _, dir := range []string{t.TempDir(), "."} {
		if memFS(t, dir) {
			continue
		}
		f, err := os.CreateTemp(dir, "rawio-")
		if err != nil {
			t.Fatal(err)
		}
		f.Close()
		defer os.Remove(f.Name())
		if wrapped(t, f.Name(), os.O_RDWR) {
			t.Errorf("regular file in %s, not a memory file system, wrapped", dir)
		}
		return
	}
	t.Log("no directory off a memory file system to test")
}

// A write the kernel cuts short resumes where it stopped, as os's does: under
// a file size limit the first write(2) or pwrite64(2) stops at the limit and
// the next one fails with EFBIG, so a wrapper that gave up after the short
// write would report no error where os reports EFBIG. The limit is the
// process's own, lifted before the test returns; Go ignores the SIGXFSZ the
// kernel sends with EFBIG. The wrapper's count is what io.WriterAt asks
// for, the bytes written before the error; os.File.WriteAt reports 0 there,
// so its count is not compared.
func TestShortWriteResumes(t *testing.T) {
	w, p, _ := pairIn(t, rawiotest.MemDir(t), os.O_RDWR)
	var old syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
		t.Fatal(err)
	}
	const limit = 10000
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &syscall.Rlimit{Cur: limit, Max: old.Max}); err != nil {
		t.Skip(err)
	}
	defer syscall.Setrlimit(syscall.RLIMIT_FSIZE, &old)

	for _, c := range []struct {
		name  string
		write func(rawio.File) (int, error)
		n     int
		osN   bool // whether os reports the same count
	}{
		{"Write", func(f rawio.File) (int, error) { return f.Write(make([]byte, 16384)) }, limit, true},
		{"WriteAt", func(f rawio.File) (int, error) { return f.WriteAt(make([]byte, 8192), 4000) }, limit - 4000, false},
	} {
		gn, gerr := c.write(w)
		wn, werr := c.write(p)
		if gn != c.n || (c.osN && wn != c.n) || !errors.Is(gerr, syscall.EFBIG) || !errors.Is(werr, syscall.EFBIG) {
			t.Errorf("%s past the limit: wrapper %d, %v; os %d, %v; want %d, EFBIG", c.name, gn, gerr, wn, werr, c.n)
		}
	}
}
