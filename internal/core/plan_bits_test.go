package core_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/modeltest"
)

var recordPlans = flag.Bool("record-plans", false, "rewrite testdata/plan_bits.txt from this build's plans")

// planBitsFile holds, per case, how many plans were made and a digest of
// every one's bits. It was recorded with the dense tableau pivot, which
// updated every touched row over all its columns; the served pivot
// updates the pivot row's nonzeros only and must plan the same bits.
const planBitsFile = "testdata/plan_bits.txt"

// chainPlans makes plans through PlanPairs from random requesters for
// random amounts in [lo, hi), debiting each grant's takes from v before
// the next, and digests every outcome: requester, amount, θ and each
// (source, take) as float bits, or the error text.
func chainPlans(al *core.Allocator, v []float64, plans int, seed int64, lo, hi float64) string {
	v = append([]float64(nil), v...)
	rng := rand.New(rand.NewSource(seed))
	h := sha256.New()
	word := func(x uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, x)) }
	var sources []int
	var takes []float64
	for p := 0; p < plans; p++ {
		r, amount := rng.Intn(al.N()), lo+(hi-lo)*rng.Float64()
		word(uint64(r))
		word(math.Float64bits(amount))
		var theta float64
		var err error
		sources, takes, theta, err = al.PlanPairs(sources[:0], takes[:0], v, r, amount)
		if err != nil {
			h.Write([]byte(err.Error()))
			continue
		}
		word(math.Float64bits(theta))
		for k, s := range sources {
			word(uint64(s))
			word(math.Float64bits(takes[k]))
			v[s] = max(0, v[s]-takes[k])
		}
	}
	return fmt.Sprintf("%d %x", plans, h.Sum(nil)[:8])
}

// planBitsCases plans the two served shapes whose LPs are big — churn128's
// full formulation over 128 principals and ring64's one 64-principal
// component — and every graph of the first 150 modeltest seeds under its
// level, with the full and the component formulation.
func planBitsCases(t *testing.T) map[string]string {
	got := map[string]string{}
	churn := core.Churn128Allocator(t)
	_, _, churnV := core.SparseBlockScenario(128, 1)
	got["churn128"] = chainPlans(churn, churnV, 200, 1, 0.5, 2.5)
	ring, ringV := core.Ring64Allocator(t)
	got["ring64"] = chainPlans(ring, ringV, 200, 2, 5, 15)
	for seed := int64(0); seed < 150; seed++ {
		g := modeltest.Generate(rand.New(rand.NewSource(seed)))
		for _, cfg := range []core.Config{{Level: g.Level}, {Level: g.Level, ComponentLP: true}} {
			name := fmt.Sprintf("gen%d/component=%v", seed, cfg.ComponentLP)
			al, err := core.NewAllocator(core.Sparse(g.S), core.Sparse(g.A), cfg)
			if err != nil {
				got[name] = "refused"
				continue
			}
			got[name] = chainPlans(al, g.V, 4*g.N, seed, 0, 3)
		}
	}
	return got
}

// TestPlanPairsMatchesDenseReference plans the cases above and compares
// every plan's θ and takes, bit for bit, with the run recorded from the
// dense pivot. The digests were taken on amd64, where Go does not fuse a
// multiply and an add; an architecture that does may move last bits.
func TestPlanPairsMatchesDenseReference(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the reference plans were recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	got := planBitsCases(t)
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	if *recordPlans {
		var b strings.Builder
		for _, name := range names {
			fmt.Fprintf(&b, "%s %s\n", name, got[name])
		}
		if err := os.WriteFile(planBitsFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(planBitsFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, digest, _ := strings.Cut(sc.Text(), " ")
		want[name] = digest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("%s has %d cases, the test plans %d", planBitsFile, len(want), len(got))
	}
	for _, name := range names {
		if got[name] != want[name] {
			t.Errorf("%s: plans digest to %s, the dense reference to %s", name, got[name], want[name])
		}
	}
}
