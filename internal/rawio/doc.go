// Package rawio moves the hot-path I/O of a site — its TCP connections, its
// WAL forces and its heap-page reads and writes — off the Go runtime's
// blocking-syscall path. Each call runs as a raw syscall inside a
// syscall.RawConn callback, so it never enters runtime.entersyscall and never
// restarts a parked sysmon thread: in a process that idles between requests,
// that restart was paid on the first syscall after every idle gap (DESIGN
// §10).
//
// A descriptor qualifies when its syscalls cannot wait on a device, so that
// the thread may keep its P through them:
//
//   - A socket (Wrap). Its descriptor is non-blocking, so a raw read or
//     write returns at once; on EAGAIN the runtime poller still parks the
//     goroutine, and deadlines and Close still end the wait.
//   - A regular file on a memory file system (WrapFile), decided once per
//     file from the descriptor, not the path: fstat must say S_IFREG and
//     fstatfs tmpfs or ramfs. Its write, pread and pwrite copy to and from
//     the page cache, and its fsync has nothing to flush. If the kernel has
//     swapped one of its pages out, the call that touches it waits for the
//     swap-in holding its P, just as a goroutine does that touches a
//     swapped-out page of the Go heap: no worse than the memory the process
//     already runs on.
//
// Any other descriptor — a file on a block device, whose fsync may take
// milliseconds and must hand its P away rather than delay a stop-the-world,
// a character device, a pipe — keeps the ordinary path: Wrap and WrapFile
// return it unchanged, and so does every platform but Linux, and linux/386,
// whose sockets have no recvfrom syscall to peek with.
//
// PeerClosed asks a wrapped connection, with one non-blocking MSG_PEEK,
// whether its peer has closed it: a client that reads a connection only while
// it waits for a reply learns that way, before it writes, that an idle pooled
// connection is dead. Where nothing is wrapped it reports false.
package rawio
