// Package cliutil holds the small helpers the command-line tools
// share, kept out of package main so they are testable.
package cliutil

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// ParseSize parses human-readable capacities: "64KB", "2MB", "512B",
// or a bare byte count. It is case-insensitive and ignores
// surrounding whitespace. Sizes that do not fit an int are rejected.
func ParseSize(s string) (int, error) {
	orig := s
	s = strings.TrimSpace(strings.ToUpper(s))
	mult := 1
	switch {
	case strings.HasSuffix(s, "MB"):
		mult, s = 1<<20, strings.TrimSuffix(s, "MB")
	case strings.HasSuffix(s, "KB"):
		mult, s = 1<<10, strings.TrimSuffix(s, "KB")
	case strings.HasSuffix(s, "GB"):
		mult, s = 1<<30, strings.TrimSuffix(s, "GB")
	case strings.HasSuffix(s, "B"):
		s = strings.TrimSuffix(s, "B")
	}
	n, err := strconv.Atoi(strings.TrimSpace(s))
	if err != nil {
		return 0, fmt.Errorf("cliutil: bad size %q", orig)
	}
	if n < 0 {
		return 0, fmt.Errorf("cliutil: negative size %q", orig)
	}
	if n > math.MaxInt/mult {
		return 0, fmt.Errorf("cliutil: size %q overflows", orig)
	}
	return n * mult, nil
}

// FormatSize renders a byte count the way the paper's axes do.
func FormatSize(bytes int) string {
	switch {
	case bytes >= 1<<30 && bytes%(1<<30) == 0:
		return fmt.Sprintf("%dGB", bytes>>30)
	case bytes >= 1<<20 && bytes%(1<<20) == 0:
		return fmt.Sprintf("%dMB", bytes>>20)
	case bytes >= 1<<10 && bytes%(1<<10) == 0:
		return fmt.Sprintf("%dKB", bytes>>10)
	default:
		return fmt.Sprintf("%dB", bytes)
	}
}
