//go:build linux

package scan

import (
	"errors"
	"io/fs"
	"runtime"
	"syscall"
)

// inotifyFD owns an inotify descriptor. A scanner that is dropped
// without Close has it closed by the finalizer.
type inotifyFD struct{ fd int }

// openInotify opens a non-blocking, close-on-exec inotify instance.
// Past the per-user instance limit it fails with EMFILE.
func openInotify() (*inotifyFD, error) {
	fd, err := syscall.InotifyInit1(syscall.IN_NONBLOCK | syscall.IN_CLOEXEC)
	if err != nil {
		return nil, err
	}
	f := &inotifyFD{fd: fd}
	runtime.SetFinalizer(f, (*inotifyFD).close)
	return f, nil
}

// addWatch watches one directory; past the per-user watch limit it
// fails with ENOSPC.
func (f *inotifyFD) addWatch(path string, mask uint32) (int32, error) {
	wd, err := syscall.InotifyAddWatch(f.fd, path, mask)
	return int32(wd), err
}

// read reads queued events into buf, returning 0 when none are queued.
func (f *inotifyFD) read(buf []byte) (int, error) {
	for {
		n, err := syscall.Read(f.fd, buf)
		switch {
		case errors.Is(err, syscall.EINTR):
			continue
		case errors.Is(err, syscall.EAGAIN):
			return 0, nil
		case err != nil:
			return 0, err
		}
		return n, nil
	}
}

func (f *inotifyFD) close() {
	if f.fd >= 0 {
		syscall.Close(f.fd)
		f.fd = -1
		runtime.SetFinalizer(f, nil)
	}
}

// isAbsent reports whether an lstat error means that nothing is at the
// path (the walk would not have seen it), as opposed to a failure the
// walk would have reported.
func isAbsent(err error) bool {
	return errors.Is(err, fs.ErrNotExist) || errors.Is(err, syscall.ENOTDIR)
}
