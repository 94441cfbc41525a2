package main

import (
	"strings"
	"testing"
)

func BenchmarkParseModel(b *testing.B) {
	src := `
min: 2 x + 3 y + z
c1: x + y >= 4
c2: x - y <= 2
c3: x + 2 y + 3 z = 9
0 <= z <= 5
`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := parseModel(strings.NewReader(src)); err != nil {
			b.Fatal(err)
		}
	}
}
