//go:build linux && !386 && !race

package rawio

import (
	"syscall"
	"unsafe"
)

// sysRead is read(2) without the runtime's syscall bookkeeping: the thread
// keeps its P, and sysmon is not woken to watch for a blocked call, which a
// non-blocking socket never makes.
func sysRead(fd uintptr, p []byte) (int, syscall.Errno) {
	n, _, errno := syscall.RawSyscall(syscall.SYS_READ, fd, uintptr(unsafe.Pointer(unsafe.SliceData(p))), uintptr(len(p)))
	return int(n), errno
}

// sysWrite is write(2), raw as sysRead is.
func sysWrite(fd uintptr, p []byte) (int, syscall.Errno) {
	n, _, errno := syscall.RawSyscall(syscall.SYS_WRITE, fd, uintptr(unsafe.Pointer(unsafe.SliceData(p))), uintptr(len(p)))
	return int(n), errno
}

// sysPeek is recv(2) with MSG_PEEK and MSG_DONTWAIT into p, raw as sysRead
// is: it consumes nothing and never waits.
func sysPeek(fd uintptr, p []byte) (int, syscall.Errno) {
	n, _, errno := syscall.RawSyscall6(syscall.SYS_RECVFROM, fd, uintptr(unsafe.Pointer(unsafe.SliceData(p))), uintptr(len(p)),
		syscall.MSG_PEEK|syscall.MSG_DONTWAIT, 0, 0)
	return int(n), errno
}

// sysPread is pread64(2), raw as sysRead is: a memory file system's page
// cache has no device behind it to wait for. The offset fills one register,
// which holds only on the 64-bit platforms WrapFile wraps a file on.
func sysPread(fd uintptr, p []byte, off int64) (int, syscall.Errno) {
	n, _, errno := syscall.RawSyscall6(syscall.SYS_PREAD64, fd, uintptr(unsafe.Pointer(unsafe.SliceData(p))), uintptr(len(p)),
		uintptr(off), 0, 0)
	return int(n), errno
}

// sysPwrite is pwrite64(2), raw as sysPread is.
func sysPwrite(fd uintptr, p []byte, off int64) (int, syscall.Errno) {
	n, _, errno := syscall.RawSyscall6(syscall.SYS_PWRITE64, fd, uintptr(unsafe.Pointer(unsafe.SliceData(p))), uintptr(len(p)),
		uintptr(off), 0, 0)
	return int(n), errno
}

// sysFsync is fsync(2), raw as sysPread is: on a memory file system there is
// nothing to flush, and it returns at once.
func sysFsync(fd uintptr) syscall.Errno {
	_, _, errno := syscall.RawSyscall(syscall.SYS_FSYNC, fd, 0, 0)
	return errno
}
