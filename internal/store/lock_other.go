//go:build !unix

package store

import "os"

// lockFile always succeeds where flock is unavailable: there a store
// cannot tell another live store's segment from its own, so run one
// store per directory.
func lockFile(*os.File) error { return nil }

// unlockFile is a no-op where flock is unavailable.
func unlockFile(*os.File) error { return nil }
