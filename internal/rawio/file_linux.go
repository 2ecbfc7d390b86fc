//go:build linux && !386

package rawio

import (
	"errors"
	"io"
	"math/bits"
	"os"
	"sync"
	"syscall"
)

// The file system types fstatfs(2) reports for the two memory file systems.
const (
	tmpfsMagic = 0x01021994
	ramfsMagic = 0x858458f6
)

var errNegativeOffset = errors.New("negative offset")

// WrapFile returns f with Write, ReadAt, WriteAt and Sync on raw syscalls
// when its descriptor is a regular file on tmpfs or ramfs, and f itself
// otherwise. It decides once, from the descriptor: a symlink on tmpfs to a
// device is a device. Files keep the ordinary path on 32-bit platforms too,
// where pread64's offset spans two registers in an order that differs by
// architecture.
//
// The wrapper behaves as f does — every byte and every fsync reaches the
// file, a short write resumes where it stopped, ReadAt returns io.EOF with
// what it read when the file ends first, and a failure is an *os.PathError
// naming the file — and allocates nothing. It owns nothing: f stays the
// file to stat, truncate and close, and once f is closed every call fails
// with os.ErrClosed. Its calls take turns, which costs nothing where the
// caller already serializes them.
func WrapFile(f *os.File) File {
	if bits.UintSize != 64 {
		return f
	}
	rc, err := f.SyscallConn()
	if err != nil {
		return f
	}
	var mem bool
	if err := rc.Control(func(fd uintptr) { mem = onMemFS(int(fd)) }); err != nil || !mem {
		return f
	}
	w := &file{f: f, rc: rc}
	w.writeFn, w.preadFn, w.pwriteFn, w.fsyncFn = w.write, w.pread, w.pwrite, w.fsync
	return w
}

// onMemFS reports whether fd is a regular file on tmpfs or ramfs.
func onMemFS(fd int) bool {
	var st syscall.Stat_t
	if syscall.Fstat(fd, &st) != nil || st.Mode&syscall.S_IFMT != syscall.S_IFREG {
		return false
	}
	var fs syscall.Statfs_t
	if syscall.Fstatfs(fd, &fs) != nil {
		return false
	}
	switch uint32(fs.Type) { // int64 on most platforms, uint32 on s390x
	case tmpfsMagic, ramfsMagic:
		return true
	}
	return false
}

// file is a wrapped memory-file-system file: the callbacks RawConn.Control
// runs, bound once so a call allocates nothing, and the arguments and
// results of the call in progress, which mu gives to one caller at a time.
type file struct {
	f  *os.File
	rc syscall.RawConn

	writeFn, preadFn, pwriteFn, fsyncFn func(fd uintptr)

	mu  sync.Mutex
	p   []byte
	off int64
	n   int
	err error
}

func (f *file) Write(p []byte) (int, error) {
	return f.call(f.writeFn, "write", p, 0)
}

func (f *file) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, &os.PathError{Op: "writeat", Path: f.f.Name(), Err: errNegativeOffset}
	}
	return f.call(f.pwriteFn, "write", p, off)
}

func (f *file) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, &os.PathError{Op: "readat", Path: f.f.Name(), Err: errNegativeOffset}
	}
	n, err := f.call(f.preadFn, "read", p, off)
	if err == nil && n < len(p) {
		err = io.EOF
	}
	return n, err
}

func (f *file) Sync() error {
	_, err := f.call(f.fsyncFn, "sync", nil, 0)
	return err
}

// call runs fn on the descriptor over p at off and returns the bytes it
// moved and, if it failed, the error os would: the errno under op and the
// file's name, or os.ErrClosed once the file is closed, the one error
// Control returns for a file.
func (f *file) call(fn func(fd uintptr), op string, p []byte, off int64) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.p, f.off, f.n, f.err = p, off, 0, nil
	err := f.rc.Control(fn)
	f.p = nil
	switch {
	case err != nil:
		err = os.ErrClosed
	case f.err != nil:
		err = f.err
	default:
		return f.n, nil
	}
	return f.n, &os.PathError{Op: op, Path: f.f.Name(), Err: err}
}

// write appends p from n on until all of it is written or write(2) fails.
func (f *file) write(fd uintptr) {
	for f.n < len(f.p) && f.advance(sysWrite(fd, f.p[f.n:])) {
	}
}

// pwrite writes p from n on at off+n until all of it is written or
// pwrite64(2) fails.
func (f *file) pwrite(fd uintptr) {
	for f.n < len(f.p) && f.advance(sysPwrite(fd, f.p[f.n:], f.off+int64(f.n))) {
	}
}

// pread reads into p from n on at off+n until p is full, pread64(2) fails or
// the file ends.
func (f *file) pread(fd uintptr) {
	for f.n < len(f.p) {
		n, errno := sysPread(fd, f.p[f.n:], f.off+int64(f.n))
		if n == 0 && errno == 0 {
			return
		}
		if !f.advance(n, errno) {
			return
		}
	}
}

func (f *file) fsync(fd uintptr) {
	errno := sysFsync(fd)
	for errno == syscall.EINTR {
		errno = sysFsync(fd)
	}
	if errno != 0 {
		f.err = errno
	}
}

// advance takes one read's or write's result and reports whether the call
// goes on: n more bytes moved, or EINTR, which retries. Another errno stops
// the call with it, and so does a write that moves nothing, as it does in
// package os.
func (f *file) advance(n int, errno syscall.Errno) bool {
	switch errno {
	case 0:
	case syscall.EINTR:
		return true
	default:
		f.err = errno
		return false
	}
	if n == 0 {
		f.err = io.ErrUnexpectedEOF
		return false
	}
	f.n += n
	return true
}
