//go:build !linux

package rawio

import "os"

// WrapFile returns f: outside Linux every file keeps the os package's path.
func WrapFile(f *os.File) File { return f }
