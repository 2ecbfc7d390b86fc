package rawio

import "io"

// File is what a site does with a stable file once it is open: append to it
// (the WAL), read and write pages at an offset (the heap), and force it to
// stable storage. An *os.File is one; WrapFile returns either that or a
// wrapper with the same behaviour on raw syscalls.
type File interface {
	io.Writer
	io.ReaderAt
	io.WriterAt
	Sync() error
}
