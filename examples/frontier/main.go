// Frontier explorer: for each choice of servers-per-switch H, find how
// large a Jellyfish can grow before it loses full throughput, and compare
// against the closed-form Equation 3 limit of Theorem 4.1 — a scaled-down
// interactive version of the paper's Figure 8 and Table 3.
//
// Flags let you change the radix, the H range, and the search budget.
package main

import (
	"flag"
	"fmt"
	"log"

	"dctopo/estimators"
	"dctopo/expt"
	"dctopo/tub"
)

func main() {
	radix := flag.Int("radix", 32, "switch radix R")
	hMin := flag.Int("hmin", 9, "smallest servers-per-switch to sweep")
	hMax := flag.Int("hmax", 12, "largest servers-per-switch to sweep")
	maxSwitches := flag.Int("max-switches", 1200, "largest topology probed")
	seed := flag.Uint64("seed", 1, "RNG seed")
	flag.Parse()

	fmt.Printf("Full-throughput frontier, Jellyfish R=%d (probing up to %d switches)\n\n", *radix, *maxSwitches)
	fmt.Printf("%3s  %22s  %22s  %22s\n", "H", "empirical TUB frontier", "empirical BBW frontier", "closed-form Eq.3 limit")

	for h := *hMin; h <= *hMax; h++ {
		if *radix-h < 2 {
			continue
		}
		var tubFrontier, bbwFrontier int
		for n := 32; n <= *maxSwitches; n += max(1, n*3/20) {
			t, err := expt.BuildAny(string(expt.FamilyJellyfish), n, *radix, h, *seed, nil)
			if err != nil {
				continue
			}
			bound, err := tub.Bound(t, tub.Options{})
			if err != nil {
				log.Fatal(err)
			}
			if bound.Bound >= 1 && t.NumServers() > tubFrontier {
				tubFrontier = t.NumServers()
			}
			if estimators.Bisection(t, *seed).Full && t.NumServers() > bbwFrontier {
				bbwFrontier = t.NumServers()
			}
		}
		eq3, err := tub.MaxServersEq3(*radix, h, 1<<33)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%3d  %18d srv  %18d srv  %18d srv\n", h, tubFrontier, bbwFrontier, eq3)
	}

	fmt.Println("\nReading the table: the empirical frontier is where generated instances stop")
	fmt.Println("having TUB >= 1; the Eq.3 column is the paper's Table 3 upper limit for ANY")
	fmt.Println("uni-regular topology with these parameters (111K for R=32, H=8).")
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
