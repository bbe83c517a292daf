//go:build !linux

package scan

import (
	"errors"
	"io/fs"
)

// Without inotify there is no change feed: every scan walks.

var errNoFeed = errors.New("scan: no change feed on this platform")

type inotifyFD struct{}

func openInotify() (*inotifyFD, error) { return nil, errNoFeed }

func (*inotifyFD) addWatch(string, uint32) (int32, error) { return 0, errNoFeed }

func (*inotifyFD) read([]byte) (int, error) { return 0, errNoFeed }

func (*inotifyFD) close() {}

func isAbsent(err error) bool { return errors.Is(err, fs.ErrNotExist) }
