package metrics

import (
	"sync"
	"testing"
)

// TestCounterConcurrent hammers one counter from many goroutines; run
// under -race this both checks the final sum and proves the type is
// data-race free.
func TestCounterConcurrent(t *testing.T) {
	const goroutines, each = 16, 10_000
	var c Counter
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*each {
		t.Fatalf("counter = %d, want %d", got, goroutines*each)
	}
}

// TestCounterResetLosesNothing interleaves increments with periodic
// Reset drains; the drained total plus the remainder must equal exactly
// the number of increments — the atomic swap cannot drop events.
func TestCounterResetLosesNothing(t *testing.T) {
	const goroutines, each = 8, 5_000
	var c Counter
	var wg sync.WaitGroup
	// The drainer sums into its own variable, read after it exits: a
	// bounded channel here deadlocks once more drains succeed than it
	// holds, because nothing receives until the drainer is done.
	var drained int64
	stop := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				c.Inc()
			}
		}()
	}
	var drainWG sync.WaitGroup
	drainWG.Add(1)
	go func() {
		defer drainWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				drained += c.Reset()
			}
		}
	}()
	wg.Wait()
	close(stop)
	drainWG.Wait()
	total := c.Reset() + drained
	if total != goroutines*each {
		t.Fatalf("drained+remainder = %d, want %d", total, goroutines*each)
	}
}

func TestCounterAddAndNegative(t *testing.T) {
	var c Counter
	c.Add(5)
	c.Add(-2)
	if got := c.Value(); got != 3 {
		t.Fatalf("counter = %d, want 3", got)
	}
	if got := c.Reset(); got != 3 {
		t.Fatalf("reset returned %d, want 3", got)
	}
	if got := c.Value(); got != 0 {
		t.Fatalf("counter after reset = %d, want 0", got)
	}
}

// TestGaugeConcurrent: concurrent Set/Value must be race-free and every
// read must observe some value that was actually written (atomicity — no
// torn halves mixing two writes).
func TestGaugeConcurrent(t *testing.T) {
	var g Gauge
	vals := []float64{1.5, -2.25, 1e300, 0.125}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for _, v := range vals {
		wg.Add(1)
		go func(x float64) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					g.Set(x)
				}
			}
		}(v)
	}
	valid := map[float64]bool{0: true}
	for _, v := range vals {
		valid[v] = true
	}
	for i := 0; i < 50_000; i++ {
		if got := g.Value(); !valid[got] {
			close(stop)
			wg.Wait()
			t.Fatalf("gauge read torn value %g, never written", got)
		}
	}
	close(stop)
	wg.Wait()
}
