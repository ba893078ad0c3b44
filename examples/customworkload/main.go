// Customworkload shows how to study metadata caching for an access
// pattern of your own: build a generator from explicit locality /
// footprint / write-mix knobs with NewSynthetic, then sweep the
// spatial-locality axis and watch how each metadata type's
// cacheability responds — the core mechanism behind every figure in
// the paper.
package main

import (
	"fmt"
	"log"

	mapsim "github.com/maps-sim/mapsim"
)

func main() {
	fmt.Println("metadata MPKI vs spatial locality (64KB metadata cache, 32MB footprint)")
	fmt.Println()
	fmt.Printf("%-18s %12s %12s %12s %12s\n",
		"sequential run", "counter", "hash", "tree", "total MPKI")

	// Sweep spatial locality: from pure pointer chasing (run 1) to
	// long streams (run 64 words = 512 B).
	for _, run := range []int{1, 4, 16, 64} {
		gen, err := mapsim.NewSynthetic(mapsim.SyntheticConfig{
			Name:           fmt.Sprintf("custom-run%d", run),
			FootprintBytes: 32 << 20,
			MeanGap:        3,
			WriteFraction:  0.2,
			SequentialRun:  run,
		})
		if err != nil {
			log.Fatal(err)
		}
		res, err := mapsim.Run(mapsim.Config{
			Workload:     gen,
			Instructions: 1_000_000,
			Secure:       true,
			Speculation:  true,
			Meta:         &mapsim.MetaConfig{Size: 64 << 10},
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-18s %12.2f %12.2f %12.2f %12.2f\n",
			fmt.Sprintf("%d words (%dB)", run, run*8),
			res.Meta[mapsim.KindCounter].MPKI,
			res.Meta[mapsim.KindHash].MPKI,
			res.Meta[mapsim.KindTree].MPKI,
			res.MetaMPKI)
	}

	fmt.Println()
	fmt.Println("spatial locality in the data stream becomes temporal locality for")
	fmt.Println("metadata (one counter block covers a 4KB page, one hash block 512B),")
	fmt.Println("so longer runs collapse metadata misses — the paper's §IV-C insight.")
}
