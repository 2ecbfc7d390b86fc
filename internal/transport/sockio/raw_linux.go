//go:build linux && !race

package sockio

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
