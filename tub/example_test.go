package tub_test

import (
	"fmt"
	"log"

	"dctopo/topo"
	"dctopo/tub"
)

// ExampleBound evaluates the throughput upper bound on a fat-tree (a
// Clos-family topology, so the bound is exactly 1).
func ExampleBound() {
	ft, err := topo.FatTree(8)
	if err != nil {
		log.Fatal(err)
	}
	res, err := tub.Bound(ft, tub.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("TUB = %.3f\n", res.Bound)
	// Output: TUB = 1.000
}

// ExampleMaxServersEq3 reproduces the paper's Table 3 headline number:
// the largest server count any uni-regular topology with 32-port switches
// and 8 servers per switch can reach with full throughput.
func ExampleMaxServersEq3() {
	n, err := tub.MaxServersEq3(32, 8, 1<<33)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(n)
	// Output: 111008
}

// ExampleUniRegularBound evaluates the Theorem 4.1 bound just past the
// Table 3 frontier: no uni-regular topology there can have full
// throughput.
func ExampleUniRegularBound() {
	bound, err := tub.UniRegularBound(131072, 32, 8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("theta* <= %.3f\n", bound)
	// Output: theta* <= 0.951
}

// ExampleResult_Matrix builds the worst-case (maximal permutation)
// traffic matrix of a topology — the input the evaluation routes with
// KSP-MCF to measure TUB's gap.
func ExampleResult_Matrix() {
	t, err := topo.Jellyfish(topo.JellyfishConfig{Switches: 16, Radix: 8, Servers: 4, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	res, err := tub.Bound(t, tub.Options{})
	if err != nil {
		log.Fatal(err)
	}
	tm, err := res.Matrix(t)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d demands of %.0f servers each\n", len(tm.Demands), tm.Demands[0].Amount)
	// Output: 16 demands of 4 servers each
}
