// Virtual currencies: the paper's Example 2 (Figure 2).
//
// Principal A funds two virtual currencies from its default currency: A1
// with 30% of A's value and A2 with 50%. A1's whole face backs C; A2
// backs D (40%) and B (60%). A can then inflate A2 — diluting B's and D's
// agreements — without touching C, demonstrating how virtual currencies
// decouple one subset of agreements from fluctuations in another.
//
// Run with: go run ./examples/virtualcurrency
package main

import (
	"fmt"
	"log"

	"repro/internal/agreement"
)

func main() {
	sys := agreement.NewSystem()
	a := sys.AddPrincipal("A")
	b := sys.AddPrincipal("B")
	c := sys.AddPrincipal("C")
	d := sys.AddPrincipal("D")

	if _, err := sys.AddResource("diskA", "disk", a, 10); err != nil {
		log.Fatal(err)
	}
	if _, err := sys.AddResource("diskB", "disk", b, 15); err != nil {
		log.Fatal(err)
	}

	// Two virtual currencies carved out of A's default currency.
	a1, err := sys.NewVirtualCurrency("A1", sys.CurrencyOf(a), 300, 1000)
	if err != nil {
		log.Fatal(err)
	}
	a2, err := sys.NewVirtualCurrency("A2", sys.CurrencyOf(a), 500, 1000)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := sys.ShareRelative(a1, sys.CurrencyOf(c), 1000); err != nil {
		log.Fatal(err)
	}
	if _, err := sys.ShareRelative(a2, sys.CurrencyOf(d), 400); err != nil {
		log.Fatal(err)
	}
	if _, err := sys.ShareRelative(a2, sys.CurrencyOf(b), 600); err != nil {
		log.Fatal(err)
	}

	print := func(when string) {
		v, err := sys.Values("disk")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s:\n", when)
		fmt.Printf("  A1 = %.2f, A2 = %.2f\n", v[a1], v[a2])
		for _, p := range []agreement.PrincipalID{b, c, d} {
			fmt.Printf("  value(%s) = %.2f\n", sys.Principal(p).Name, v[sys.CurrencyOf(p)])
		}
	}

	print("before inflation (paper: A1=3, A2=5, C=3, D=2, B=18)")

	// Inflate A2 to twice its face value: B's and D's tickets now
	// represent half the share they used to.
	if err := sys.Inflate(a2, 2000); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ninflating currency A2 from 1000 to 2000 units...")
	print("after inflation (C is untouched; B and D diluted)")
}
