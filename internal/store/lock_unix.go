//go:build unix

package store

import (
	"os"
	"syscall"
)

// lockFile takes a non-blocking exclusive flock on f: the claim a
// store holds on the segment it appends to. It fails at once when
// another open file holds the lock, in this process or another.
func lockFile(f *os.File) error { return flock(f, syscall.LOCK_EX|syscall.LOCK_NB) }

// unlockFile releases lockFile's claim.
func unlockFile(f *os.File) error { return flock(f, syscall.LOCK_UN) }

func flock(f *os.File, how int) error {
	rc, err := f.SyscallConn()
	if err != nil {
		return err
	}
	var ferr error
	if err := rc.Control(func(fd uintptr) { ferr = syscall.Flock(int(fd), how) }); err != nil {
		return err
	}
	return ferr
}
