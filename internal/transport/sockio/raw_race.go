//go:build linux && race

package sockio

import "syscall"

// Under the race detector the socket syscalls go through package syscall,
// whose Read and Write tell the detector that what one goroutine wrote
// happens before what another goroutine read: without those edges a
// request's handler and the goroutine that sent its reply look racy.

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

func errnoOf(err error) syscall.Errno {
	if err == nil {
		return 0
	}
	return err.(syscall.Errno)
}
