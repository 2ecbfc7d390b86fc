// Package sockio moves a TCP connection's reads and writes off the Go
// runtime's blocking-syscall path. Wrap returns a net.Conn whose Read and
// Write run read(2) and write(2) as raw non-blocking syscalls inside
// syscall.RawConn.Read and Write. On EAGAIN the runtime poller still parks
// the goroutine, and deadlines and Close still end the wait, but the call
// never enters runtime.entersyscall, so it never restarts a parked sysmon
// thread: in a process that idles between frames, that restart was paid on
// the first socket syscall after every idle gap (DESIGN §10).
//
// Only sockets qualify: a socket's descriptor is non-blocking, so a raw read
// or write returns at once. A file descriptor can block on its device, and
// the runtime must hand that thread's P away, so files keep the ordinary
// path. Wrap returns any other net.Conn (a net.Pipe end, a test double)
// unchanged, and so does every platform but Linux.
//
// PeerClosed asks a wrapped connection, with one non-blocking MSG_PEEK,
// whether its peer has closed it: a client that reads a connection only while
// it waits for a reply learns that way, before it writes, that an idle pooled
// connection is dead. Off Linux it reports false.
package sockio
