//go:build linux && !386 && race

package rawio

import "syscall"

// Under the race detector the socket and file syscalls go through package
// syscall, whose Read, Write, Pread and Pwrite tell the detector that what
// one goroutine wrote happens before what another goroutine read: without
// those edges a request's handler and the goroutine that sent its reply look
// racy.

func sysRead(fd uintptr, p []byte) (int, syscall.Errno) {
	n, err := syscall.Read(int(fd), p)
	return n, errnoOf(err)
}

func sysWrite(fd uintptr, p []byte) (int, syscall.Errno) {
	n, err := syscall.Write(int(fd), p)
	return n, errnoOf(err)
}

// sysPeek moves no data between goroutines and so needs no edge; it goes
// through package syscall only so that every socket syscall of a race build
// takes one path. On a connected socket recvfrom fills in no address, so it
// allocates nothing.
func sysPeek(fd uintptr, p []byte) (int, syscall.Errno) {
	n, _, err := syscall.Recvfrom(int(fd), p, syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
	return n, errnoOf(err)
}

func sysPread(fd uintptr, p []byte, off int64) (int, syscall.Errno) {
	n, err := syscall.Pread(int(fd), p, off)
	return n, errnoOf(err)
}

func sysPwrite(fd uintptr, p []byte, off int64) (int, syscall.Errno) {
	n, err := syscall.Pwrite(int(fd), p, off)
	return n, errnoOf(err)
}

// sysFsync moves no data either; like sysPeek it takes package syscall's
// path so that a race build has one.
func sysFsync(fd uintptr) syscall.Errno {
	return errnoOf(syscall.Fsync(int(fd)))
}

func errnoOf(err error) syscall.Errno {
	if err == nil {
		return 0
	}
	return err.(syscall.Errno)
}
