// Policyexplorer compares metadata-cache replacement policies and
// sizes on one benchmark — the paper's Figure 6 territory, exposed as
// an interactive-style exploration of the public API. It also shows
// recording a trace with Config.Tap and handing it to Belady's MIN as
// (stale-able) future knowledge.
package main

import (
	"flag"
	"fmt"
	"log"

	mapsim "github.com/maps-sim/mapsim"
)

func main() {
	bench := flag.String("bench", "fft", "benchmark to explore")
	instructions := flag.Uint64("instructions", 1_000_000, "instructions per run")
	flag.Parse()

	sizes := []int{16 << 10, 64 << 10, 256 << 10}
	policies := map[string]func() mapsim.ReplacementPolicy{
		"plru":  mapsim.NewPLRU,
		"lru":   mapsim.NewLRU,
		"fifo":  mapsim.NewFIFO,
		"srrip": mapsim.NewSRRIP,
		"eva":   mapsim.NewEVA,
	}
	order := []string{"plru", "lru", "fifo", "srrip", "eva", "min"}

	run := func(size int, p mapsim.ReplacementPolicy, tap func(mapsim.TraceAccess)) *mapsim.Result {
		r, err := mapsim.Run(mapsim.Config{
			Benchmark:    *bench,
			Instructions: *instructions,
			Secure:       true,
			Speculation:  true,
			Meta:         &mapsim.MetaConfig{Size: size, Policy: p},
			Tap:          tap,
		})
		if err != nil {
			log.Fatal(err)
		}
		return r
	}

	fmt.Printf("metadata MPKI for %s across policies and sizes:\n\n", *bench)
	fmt.Printf("%-8s", "policy")
	for _, s := range sizes {
		fmt.Printf("%10dKB", s>>10)
	}
	fmt.Println()

	for _, name := range order {
		fmt.Printf("%-8s", name)
		for _, size := range sizes {
			var mpki float64
			if name == "min" {
				// Record a true-LRU trace, then replay with MIN using
				// it as future knowledge — knowledge that goes stale
				// as decisions deviate (the paper's §V-B).
				tr := &mapsim.Trace{}
				run(size, mapsim.NewLRU(), tr.Append)
				mpki = run(size, mapsim.NewMIN(tr), nil).MetaMPKI
			} else {
				mpki = run(size, policies[name](), nil).MetaMPKI
			}
			fmt.Printf("%12.2f", mpki)
		}
		fmt.Println()
	}
	fmt.Println("\nnote how MIN — 'optimal' for ordinary caches — is often no better")
	fmt.Println("than pseudo-LRU here: metadata miss costs are non-uniform and the")
	fmt.Println("access trace itself depends on what the cache holds.")
}
