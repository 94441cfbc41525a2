// Command lrmd runs a demo Local Resource Manager against a GRM
// (cmd/grmd): it registers a principal with some capacity, optionally
// creates sharing agreements, periodically reports availability, and can
// fire a one-shot allocation request — a minimal command-line face for
// the LRM client library.
//
// The connection is managed under a failure policy: every operation has a
// deadline, and a dead connection is transparently redialed with
// exponential backoff, re-registering under the same name and replaying
// the last availability report.
//
// Usage:
//
//	lrmd -grm localhost:7070 -name siteA -capacity 100
//	lrmd -grm localhost:7070 -name siteB -capacity 50 -share 0:0.3
//	lrmd -grm localhost:7070 -name siteC -capacity 0 -alloc 20 -hold 30s
//	lrmd -grm localhost:7070 -name siteD -timeout 2s -retries 5 -report 10s
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/grm"
)

func main() {
	var (
		addr     = flag.String("grm", "localhost:7070", "GRM address")
		name     = flag.String("name", "site", "principal name")
		capacity = flag.Float64("capacity", 100, "resource capacity to register")
		share    = flag.String("share", "", "comma-separated agreements principal:fraction (e.g. 0:0.3,2:0.1)")
		alloc    = flag.Float64("alloc", 0, "one-shot allocation request, then exit")
		hold     = flag.Duration("hold", 0, "hold the -alloc lease this long (renewing as needed) before releasing")
		report   = flag.Duration("report", 0, "if set, keep reporting availability at this interval")
		timeout  = flag.Duration("timeout", 10*time.Second, "per-operation deadline")
		retries  = flag.Int("retries", 3, "reconnect rounds per failed operation")
		backoff  = flag.Duration("backoff", 50*time.Millisecond, "initial reconnect backoff (doubles, jittered)")
	)
	flag.Parse()

	cfg := grm.DefaultDialConfig()
	cfg.Timeout = *timeout
	cfg.RetryMax = *retries
	cfg.Backoff = *backoff

	lrm, err := grm.DialWithConfig(*addr, *name, *capacity, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lrmd: %v\n", err)
		os.Exit(1)
	}
	defer lrm.Close()
	fmt.Printf("registered %q as principal %d\n", *name, lrm.Principal())

	if *share != "" {
		for _, part := range strings.Split(*share, ",") {
			to, frac, err := parseShare(part)
			if err != nil {
				fmt.Fprintf(os.Stderr, "lrmd: %v\n", err)
				os.Exit(2)
			}
			ticket, err := lrm.ShareRelative(to, frac)
			if err != nil {
				fmt.Fprintf(os.Stderr, "lrmd: share: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("sharing %.0f%% with principal %d (ticket %d)\n", frac*100, to, ticket)
		}
	}

	if *alloc > 0 {
		reply, err := lrm.Allocate(*alloc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lrmd: allocate: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("allocated %g (theta %.4g, lease %d, ttl %v):\n", *alloc, reply.Theta, reply.Lease, reply.TTL)
		names, err := lrm.Peers()
		if err != nil {
			fmt.Fprintf(os.Stderr, "lrmd: peers: %v\n", err)
			os.Exit(1)
		}
		reply.Each(func(i int, take float64) {
			if take > 0 {
				fmt.Printf("  %g from %s (principal %d)\n", take, names[i], i)
			}
		})
		if *hold > 0 {
			holdLease(lrm, reply, *hold)
		}
		return
	}

	if *report > 0 {
		for {
			time.Sleep(*report)
			if err := lrm.Report(*capacity); err != nil {
				// The client already burned its reconnect budget; log and
				// keep trying — the GRM may come back.
				fmt.Fprintf(os.Stderr, "lrmd: report: %v (will retry)\n", err)
			}
		}
	}
}

// holdLease keeps the lease alive for the hold duration — renewing at
// half-TTL cadence when the GRM expires leases — then releases it.
func holdLease(lrm *grm.LRM, reply *grm.AllocReply, hold time.Duration) {
	deadline := time.Now().Add(hold)
	interval := hold
	if reply.TTL > 0 && reply.TTL/2 < interval {
		interval = reply.TTL / 2
	}
	for {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			break
		}
		if remaining < interval {
			time.Sleep(remaining)
			break
		}
		time.Sleep(interval)
		if reply.TTL > 0 {
			if _, err := lrm.Renew(reply.Lease); err != nil {
				fmt.Fprintf(os.Stderr, "lrmd: renew: %v\n", err)
				return
			}
		}
	}
	if err := lrm.Release(reply.Lease); err != nil {
		fmt.Fprintf(os.Stderr, "lrmd: release: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("released lease %d after %v\n", reply.Lease, hold)
}

func parseShare(s string) (int, float64, error) {
	parts := strings.SplitN(strings.TrimSpace(s), ":", 2)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("bad -share entry %q (want principal:fraction)", s)
	}
	to, err := strconv.Atoi(parts[0])
	if err != nil {
		return 0, 0, fmt.Errorf("bad principal in %q: %v", s, err)
	}
	frac, err := strconv.ParseFloat(parts[1], 64)
	if err != nil {
		return 0, 0, fmt.Errorf("bad fraction in %q: %v", s, err)
	}
	return to, frac, nil
}
