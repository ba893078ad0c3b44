// Quickstart: simulate one benchmark on a secure-memory system with a
// 64 KB metadata cache and print the headline numbers next to an
// insecure baseline — the minimal end-to-end use of the mapsim API.
package main

import (
	"fmt"
	"log"

	mapsim "github.com/maps-sim/mapsim"
)

func main() {
	const bench = "canneal"
	const instructions = 1_000_000

	baseline, err := mapsim.Run(mapsim.Config{
		Benchmark:    bench,
		Instructions: instructions,
	})
	if err != nil {
		log.Fatal(err)
	}

	secure, err := mapsim.Run(mapsim.Config{
		Benchmark:    bench,
		Instructions: instructions,
		Secure:       true,
		Speculation:  true, // PoisonIvy-style: hide verification latency
		// Table I's metadata cache: 64 KB, 8 ways (the default).
		Meta: &mapsim.MetaConfig{Size: 64 << 10, Content: mapsim.AllTypes},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("benchmark: %s (%d instructions)\n\n", bench, instructions)
	fmt.Printf("%-24s %14s %14s\n", "", "insecure", "secure+64KB$")
	fmt.Printf("%-24s %14d %14d\n", "cycles", baseline.Cycles, secure.Cycles)
	fmt.Printf("%-24s %14.2f %14.2f\n", "LLC MPKI", baseline.LLCMPKI, secure.LLCMPKI)
	fmt.Printf("%-24s %14.2f %14.2f\n", "metadata MPKI", baseline.MetaMPKI, secure.MetaMPKI)
	fmt.Printf("%-24s %14.3f %14.3f\n", "energy (mJ)", baseline.EnergyPJ/1e9, secure.EnergyPJ/1e9)
	fmt.Printf("%-24s %14.2f %14.2f\n", "ED^2 (norm.)", 1.0, secure.ED2/baseline.ED2)

	fmt.Println("\nmetadata cache behaviour by type:")
	for _, kind := range []mapsim.Kind{mapsim.KindCounter, mapsim.KindHash, mapsim.KindTree} {
		s := secure.Meta[kind]
		fmt.Printf("  %-8s accesses=%-8d misses=%-7d MPKI=%.2f\n",
			kind, s.Accesses, s.Misses, s.MPKI)
	}

	fmt.Printf("\nslowdown from secure memory: %.2fx (speculation on)\n",
		float64(secure.Cycles)/float64(baseline.Cycles))
}
