//go:build !linux || 386

package rawio

import "os"

// WrapFile returns f: outside Linux, and on linux/386 as on every 32-bit
// platform, every file keeps the os package's path.
func WrapFile(f *os.File) File { return f }
