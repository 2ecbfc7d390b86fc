// Package rawiotest gives file tests a directory on each of the two paths a
// file's I/O can take: the os package's, and rawio's raw syscalls for a file
// on a memory file system. Run runs a test in one directory of each kind, and
// MemDir makes one of the second, so that both paths stay covered wherever
// the tests' own temporary directory happens to live.
package rawiotest

import (
	"os"
	"path/filepath"
	"testing"

	"siterecovery/internal/rawio"
)

// Root is where memory-file-system directories are made: tmpfs on Linux.
const Root = "/dev/shm"

// MemDir returns a new directory under Root, removed when tb ends, whose
// regular files rawio.WrapFile puts on raw syscalls. It skips tb where there
// is none: no Root, Root not a memory file system, or a platform on which no
// file is wrapped.
func MemDir(tb testing.TB) string {
	tb.Helper()
	dir, ok := memDir(tb)
	if !ok {
		tb.Skipf("no directory under %s whose files rawio wraps", Root)
	}
	return dir
}

// Run runs f as two subtests of t: "tempdir" in t.TempDir(), which on a disk
// file system such as ext4 takes the os package's path, and "shm" in a
// MemDir, which takes the raw path and skips where there is none.
func Run(t *testing.T, f func(t *testing.T, dir string)) {
	t.Helper()
	t.Run("tempdir", func(t *testing.T) { f(t, t.TempDir()) })
	t.Run("shm", func(t *testing.T) { f(t, MemDir(t)) })
}

func memDir(tb testing.TB) (string, bool) {
	dir, err := os.MkdirTemp(Root, "rawiotest-")
	if err != nil {
		return "", false
	}
	tb.Cleanup(func() { os.RemoveAll(dir) })
	f, err := os.Create(filepath.Join(dir, "probe"))
	if err != nil {
		return "", false
	}
	_, plain := rawio.WrapFile(f).(*os.File)
	f.Close()
	return dir, !plain && os.Remove(f.Name()) == nil
}
