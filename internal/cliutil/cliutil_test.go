package cliutil

import (
	"math"
	"strconv"
	"testing"
	"testing/quick"
)

func TestParseSize(t *testing.T) {
	cases := map[string]int{
		"64KB":  64 << 10,
		"2MB":   2 << 20,
		"1GB":   1 << 30,
		"512B":  512,
		"0":     0,
		"128":   128,
		" 16kb": 16 << 10,
		"4mb ":  4 << 20,
	}
	// The largest sizes that still fit an int.
	cases[strconv.Itoa(math.MaxInt>>30)+"GB"] = math.MaxInt >> 30 << 30
	cases[strconv.Itoa(math.MaxInt>>10)+"KB"] = math.MaxInt >> 10 << 10
	cases[strconv.Itoa(math.MaxInt)] = math.MaxInt
	for in, want := range cases {
		got, err := ParseSize(in)
		if err != nil || got != want {
			t.Errorf("ParseSize(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "abc", "12XB", "-5KB", "KB",
		// Sizes whose byte count overflows an int.
		"10000000000GB", "9007199254740992KB",
		strconv.Itoa(math.MaxInt>>30+1) + "GB", strconv.Itoa(math.MaxInt>>20+1) + "MB",
		strconv.Itoa(math.MaxInt) + "0"} {
		if _, err := ParseSize(bad); err == nil {
			t.Errorf("ParseSize(%q) accepted", bad)
		}
	}
}

func TestFormatSize(t *testing.T) {
	cases := map[int]string{
		64 << 10: "64KB",
		2 << 20:  "2MB",
		1 << 30:  "1GB",
		512:      "512B",
		1500:     "1500B",
	}
	for in, want := range cases {
		if got := FormatSize(in); got != want {
			t.Errorf("FormatSize(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestPropertyRoundTrip(t *testing.T) {
	f := func(kb uint16) bool {
		n := int(kb) << 10
		got, err := ParseSize(FormatSize(n))
		return err == nil && got == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
