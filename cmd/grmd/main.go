// Command grmd runs a Global Resource Manager: the centralized scheduler
// that stores sharing agreements and allocates resources for LRMs
// (cmd/lrmd) over TCP.
//
// Usage:
//
//	grmd -listen :7070 -level 0
//	grmd -listen :7071 -parent host:7070 -name cluster-east
//	grmd -listen :7070 -lease-ttl 5m -idle-timeout 10m
//	grmd -listen :7070 -wal-dir /var/lib/grmd -snapshot-interval 5m
//	grmd -listen :7072 -shards 4 -parent host:7071 -name site-a
//	grmd -wal-dump /var/lib/grmd
//
// With -parent, the GRM attaches to a higher-level GRM as one aggregated
// principal, realizing the paper's multi-level GRM architecture; the
// attach is retried with backoff while the parent comes up, and the link
// reconnects (re-registering under the same cluster name) if it later
// dies. -lease-ttl reclaims allocations whose holder vanished without
// releasing; clients keep long-lived leases with Renew.
//
// With -shards N, the books are partitioned across N independent shards
// by the first '/'-segment of each principal's name (so one subtree —
// "site-a/worker3" — stays on one shard, and sharing agreements must be
// intra-subtree). Each shard keeps its own allocation pipeline and, with
// -wal-dir, its own write-ahead log in a shard<i>/ subdirectory that
// replays independently on boot. The cluster attaches to -parent as one
// aggregated principal summing shard availability. -agreements and
// -record require the single-book server.
//
// With -wal-dir, every committed state transition is appended to a
// write-ahead log in that directory and, on the next boot, replayed so
// the GRM resumes with the exact leases, borrows, and capacities it held
// when it stopped — including after a crash (the log recovers cleanly
// from a torn tail). -snapshot-interval periodically folds the log into
// a compacted snapshot to bound replay time. SIGTERM and SIGINT shut the
// server down cleanly: connections are severed, in-flight requests
// finish, and the log is flushed before exit.
//
// The log is binary (DESIGN.md §7b has the record layout); to read one,
//
//	grmd -wal-dump /var/lib/grmd
//
// prints the snapshot and then the WAL tail as one JSON object per line,
// and exits non-zero naming the byte offset if a file ends in a torn or
// corrupt frame. It only reads, so it is safe beside a running grmd.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/grm"
	"repro/internal/scenario"
	"repro/internal/store"
)

// grmNode is the surface grmd drives on either server shape: the plain
// single-book GRM or the subtree shard router.
type grmNode interface {
	SetLeaseTTL(ttl time.Duration)
	SetTimeouts(idle, write time.Duration)
	Status() (*grm.Status, error)
	AttachParentConfig(addr, name string, cfg grm.DialConfig) error
	Compact() error
	Serve(l net.Listener) error
	Close() error
	http.Handler
}

func main() {
	var (
		listen       = flag.String("listen", ":7070", "address to listen on")
		level        = flag.Int("level", 0, "transitivity level (0 = full closure)")
		approx       = flag.Bool("approx", false, "use matrix-power approximation for flow coefficients")
		shards       = flag.Int("shards", 1, "shard the books across this many principal subtrees (per-shard WAL and pipeline; 1 = unsharded)")
		parent       = flag.String("parent", "", "optional parent GRM address for multi-level operation")
		name         = flag.String("name", "cluster", "cluster name when attaching to a parent")
		agreements   = flag.String("agreements", "", "JSON agreements snapshot to preload (see internal/agreement.Snapshot)")
		status       = flag.String("status", "", "optional HTTP address serving the JSON status view (e.g. :8080)")
		leaseTTL     = flag.Duration("lease-ttl", 0, "reclaim unreleased leases after this TTL (0 = leases never expire)")
		idle         = flag.Duration("idle-timeout", 0, "drop LRM connections quiet for longer than this (0 = unlimited)")
		ioTimeout    = flag.Duration("io-timeout", 10*time.Second, "per-operation deadline on the parent link and response writes")
		retries      = flag.Int("retries", 5, "reconnect rounds per failed parent-link operation")
		backoff      = flag.Duration("backoff", 100*time.Millisecond, "initial parent-link reconnect backoff (doubles, jittered)")
		walDir       = flag.String("wal-dir", "", "directory for the write-ahead log; state is replayed from it on boot (empty = volatile)")
		snapInterval = flag.Duration("snapshot-interval", 0, "fold the WAL into a compacted snapshot this often (0 = never; requires -wal-dir)")
		record       = flag.String("record", "", "capture live traffic into a scenario bundle written to this directory on shutdown (see SCENARIOS.md)")
		walDump      = flag.String("wal-dump", "", "print the records of this log directory (snapshot, then WAL tail; one shard<i>/ of a sharded -wal-dir) as JSON lines and exit; non-zero with the byte offset if a file is torn")
	)
	flag.Parse()

	if *walDump != "" {
		out := bufio.NewWriter(os.Stdout)
		err := store.DumpJSON(*walDump, out)
		if ferr := out.Flush(); err == nil {
			err = ferr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "grmd: %v\n", err)
			os.Exit(1)
		}
		return
	}

	logger := log.New(os.Stderr, "grmd ", log.LstdFlags)
	if *shards < 1 {
		fmt.Fprintf(os.Stderr, "grmd: -shards must be at least 1\n")
		os.Exit(2)
	}
	// server is the books either way; with -shards > 1 it is the shard
	// router and a few single-book features are refused below.
	var server grmNode
	var cluster *grm.Sharded
	var single *grm.Server
	if *shards > 1 {
		cluster = grm.NewSharded(*shards, core.Config{Level: *level, Approx: *approx}, logger)
		server = cluster
	} else {
		single = grm.NewServer(core.Config{Level: *level, Approx: *approx}, logger)
		server = single
	}
	server.SetLeaseTTL(*leaseTTL)
	server.SetTimeouts(*idle, *ioTimeout)

	var recorder *scenario.Recorder
	if *record != "" {
		if single == nil {
			fmt.Fprintf(os.Stderr, "grmd: -record is not supported with -shards > 1\n")
			os.Exit(2)
		}
		recorder = scenario.NewRecorder(scenario.Meta{
			Name:    filepath.Base(*record),
			Title:   "grmd live recording",
			Source:  fmt.Sprintf("grmd -record (level=%d approx=%v)", *level, *approx),
			Created: time.Now().UTC().Format(time.RFC3339),
			TTLMS:   leaseTTL.Milliseconds(),
			Level:   *level,
			Approx:  *approx,
		})
		single.SetTap(recorder.Tap)
		logger.Printf("recording traffic into scenario bundle %s", *record)
	}

	// With -shards, each shard journals into its own subdirectory of
	// -wal-dir (shard0/ ... shardN-1/) and replays independently.
	var wals []*store.FileLog
	recovered := false
	if *walDir != "" {
		if single != nil {
			wal, err := store.OpenFileLog(*walDir)
			if err != nil {
				fmt.Fprintf(os.Stderr, "grmd: open wal: %v\n", err)
				os.Exit(1)
			}
			wals = append(wals, wal)
			if err := single.Recover(wal); err != nil {
				fmt.Fprintf(os.Stderr, "grmd: recover: %v\n", err)
				os.Exit(1)
			}
		} else {
			logs := make([]store.Log, cluster.NumShards())
			for i := range logs {
				wal, err := store.OpenFileLog(filepath.Join(*walDir, fmt.Sprintf("shard%d", i)))
				if err != nil {
					fmt.Fprintf(os.Stderr, "grmd: open wal shard %d: %v\n", i, err)
					os.Exit(1)
				}
				wals = append(wals, wal)
				logs[i] = wal
			}
			if err := cluster.RecoverShards(logs); err != nil {
				fmt.Fprintf(os.Stderr, "grmd: recover: %v\n", err)
				os.Exit(1)
			}
		}
		st, err := server.Status()
		if err != nil {
			fmt.Fprintf(os.Stderr, "grmd: recover: %v\n", err)
			os.Exit(1)
		}
		recovered = len(st.Principals) > 0
		if recovered {
			logger.Printf("recovered from %s: %d principals, %d leases, %d agreements",
				*walDir, len(st.Principals), st.Leases, st.Agreements)
		}
		unresolved := 0
		for _, b := range st.Federation.Borrows {
			if b.Unresolved {
				unresolved++
			}
		}
		if unresolved > 0 {
			logger.Printf("%d recovered leases hold unresolved federation borrows; the parent's lease TTL reclaims them", unresolved)
		}
	}

	if *agreements != "" {
		if single == nil {
			// A declared snapshot is one coherent book; splitting it across
			// subtree shards (and refusing its cross-subtree agreements) is
			// not what the operator meant. Preload per shard via the wire.
			fmt.Fprintf(os.Stderr, "grmd: -agreements is not supported with -shards > 1\n")
			os.Exit(2)
		}
		if recovered {
			// The replayed log already contains the loaded snapshot (and
			// everything that happened after it); loading again would
			// clash with the recovered principals.
			logger.Printf("-agreements ignored: state recovered from %s", *walDir)
		} else {
			f, err := os.Open(*agreements)
			if err != nil {
				fmt.Fprintf(os.Stderr, "grmd: %v\n", err)
				os.Exit(1)
			}
			snap, err := agreement.ReadSnapshot(f)
			f.Close()
			if err != nil {
				fmt.Fprintf(os.Stderr, "grmd: %v\n", err)
				os.Exit(1)
			}
			if err := single.LoadSnapshot(snap); err != nil {
				fmt.Fprintf(os.Stderr, "grmd: %v\n", err)
				os.Exit(1)
			}
		}
	}

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintf(os.Stderr, "grmd: %v\n", err)
		os.Exit(1)
	}
	logger.Printf("listening on %s (level=%d approx=%v)", l.Addr(), *level, *approx)

	if *status != "" {
		go func() {
			logger.Printf("status endpoint on http://%s/", *status)
			if err := http.ListenAndServe(*status, server); err != nil {
				logger.Printf("status endpoint: %v", err)
			}
		}()
	}

	if *parent != "" {
		cfg := grm.DefaultDialConfig()
		cfg.Timeout = *ioTimeout
		cfg.RetryMax = *retries
		cfg.Backoff = *backoff
		// The parent may still be coming up; retry the initial attach with
		// the same backoff policy the link uses afterwards.
		var err error
		for attempt := 0; ; attempt++ {
			if err = server.AttachParentConfig(*parent, *name, cfg); err == nil {
				break
			}
			if attempt >= *retries {
				fmt.Fprintf(os.Stderr, "grmd: %v\n", err)
				os.Exit(1)
			}
			wait := *backoff << attempt
			logger.Printf("attach to parent %s failed (%v), retrying in %v", *parent, err, wait)
			time.Sleep(wait)
		}
		logger.Printf("attached to parent GRM at %s as %q", *parent, *name)
	}

	// Periodic WAL compaction bounds replay time after a restart.
	stopCompact := make(chan struct{})
	if len(wals) > 0 && *snapInterval > 0 {
		go func() {
			t := time.NewTicker(*snapInterval)
			defer t.Stop()
			for {
				select {
				case <-stopCompact:
					return
				case <-t.C:
					if err := server.Compact(); err != nil {
						logger.Printf("wal compaction: %v", err)
					}
				}
			}
		}()
	}

	// SIGTERM/SIGINT shut down cleanly: Close severs LRM connections,
	// waits for in-flight handlers, and flushes the WAL.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigs
		logger.Printf("received %v, shutting down", sig)
		if err := server.Close(); err != nil {
			logger.Printf("close: %v", err)
		}
	}()

	err = server.Serve(l)
	close(stopCompact)
	for _, wal := range wals {
		if cerr := wal.Close(); cerr != nil {
			logger.Printf("wal close: %v", cerr)
		}
	}
	if recorder != nil {
		if n := recorder.Len(); n > 0 {
			if werr := scenario.WriteBundle(*record, recorder.Bundle()); werr != nil {
				logger.Printf("writing scenario bundle: %v", werr)
			} else {
				logger.Printf("scenario bundle with %d events written to %s (bless it with: scenario rebless %s)", n, *record, *record)
			}
		} else {
			logger.Printf("no traffic captured; scenario bundle %s not written", *record)
		}
	}
	if err != nil && !errors.Is(err, net.ErrClosed) {
		fmt.Fprintf(os.Stderr, "grmd: %v\n", err)
		os.Exit(1)
	}
	logger.Printf("shutdown complete")
}
