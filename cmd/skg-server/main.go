// Command skg-server builds (or recovers) a knowledge graph and serves
// the exploration API the paper's web UI consumes: /api/search,
// /api/cypher (reads and writes), /api/node, /api/expand,
// /api/collapse, /api/random, /api/back, and /api/stats, with
// force-directed layout positions on every returned subgraph. The synthetic
// OSCTI web itself is exposed under /s/ for inspection.
//
// With -data-dir the server is durable: boot loads the latest snapshot
// and replays the write-ahead log tail (tolerating a torn final record
// from a crash), every mutation — ingestion, fusion, Cypher writes — is
// logged before the response, the log self-compacts past a size
// threshold, and SIGTERM/SIGINT snapshots before exit. Restarting the
// server therefore resumes exactly where it stopped instead of
// re-ingesting from scratch. The directory has one format; one an
// earlier build wrote in another is refused with an error that says how
// to rewrite it. A directory `skg -out DIR` wrote is served the same way; add
// -read-only to explore it without writing to it.
//
// A durable server is also a replication leader: /replication/snapshot
// and /replication/wal let any number of read replicas bootstrap and
// tail its write-ahead log. Start a replica with -replicate-from
// pointing at the leader; it serves every read endpoint (honoring
// min_seq read-your-writes tokens) and answers writes with an HTTP 421
// redirect naming the leader. /healthz and /replication/status report
// role, applied sequence numbers, and lag.
//
// Usage:
//
//	skg-server [-addr :8080] [-reports 10] [-read-only]
//	           [-data-dir ./data] [-fsync interval|always|never] [-compact-mb 64]
//	           [-replicate-from http://leader:8080] [-advertise URL]
//	           [-slow-query-ms 200] [-ingest-limit-mb 32]
//
// GET /metrics serves Prometheus text-format counters and gauges for
// the query engine, storage, MVCC, and replication layers;
// -slow-query-ms logs statements over a latency threshold (statement
// text only — bound parameter values never appear in logs).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"securitykg"
	"securitykg/internal/cypher"
	"securitykg/internal/replication"
	"securitykg/internal/server"
	"securitykg/internal/storage"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		reports   = flag.Int("reports", 10, "reports per source to ingest when the store starts empty")
		dataDir   = flag.String("data-dir", "", "durable data directory (snapshot + write-ahead log); state survives restarts")
		fsyncFlag = flag.String("fsync", "interval", "WAL fsync policy: always (fsync per write), interval (group commit), never")
		compactMB = flag.Int("compact-mb", 64, "snapshot and truncate the WAL once it exceeds this many MiB (0 disables automatic compaction)")
		readOnly  = flag.Bool("read-only", false, "reject Cypher write statements on /api/cypher (implied by -replicate-from)")
		replFrom  = flag.String("replicate-from", "", "run as a read-only replica of the leader at this base URL (e.g. http://leader:8080); requires -data-dir")
		advertise = flag.String("advertise", "", "base URL replicas and redirected clients should use to reach this node (leader side)")
		slowMS    = flag.Int("slow-query-ms", 0, "log /api/cypher statements slower than this many milliseconds with kind, duration, rows, and budget bytes (0 disables; parameter values are never logged)")
		ingestMB  = flag.Int("ingest-limit-mb", 32, "answer write statements with 429 + Retry-After once this many MiB of write request bodies are in flight (backpressure; 0 disables)")
	)
	flag.Parse()
	if *replFrom != "" && *dataDir == "" {
		log.Fatalf("skg-server: -replicate-from requires -data-dir (the replica's own durable state)")
	}

	fmt.Println("skg-server: building system...")
	sys, err := securitykg.New(securitykg.Options{ReportsPerSource: *reports})
	if err != nil {
		log.Fatalf("skg-server: %v", err)
	}

	var db *storage.DB
	if *dataDir != "" {
		policy, err := storage.ParseSyncPolicy(*fsyncFlag)
		if err != nil {
			log.Fatalf("skg-server: %v", err)
		}
		compactBytes := int64(*compactMB) << 20
		if *compactMB <= 0 {
			compactBytes = -1 // flag semantics: 0 disables (Options treats 0 as "default")
		}
		if *replFrom != "" {
			// Replica bootstrap: an empty data dir is filled from a
			// leader snapshot before Open; a dir with state resumes
			// from its own WAL and catches up over the tail stream.
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
			if err := replication.Bootstrap(ctx, *dataDir, *replFrom, nil, log.Default()); err != nil {
				log.Fatalf("skg-server: %v", err)
			}
			cancel()
			// A replica's store is the leader's store: local Cypher
			// writes would fork it, so the engine is read-only and the
			// server redirects writers to the leader.
			*readOnly = true
		}
		// A leader whose directory starts empty ingests into it, logging
		// every mutation, and checkpoints; otherwise it serves what it
		// recovered.
		var st *securitykg.IngestStats
		db, st, err = sys.OpenDataDir(context.Background(), *dataDir, storage.Options{
			Sync:         policy,
			CompactBytes: compactBytes,
		}, *replFrom == "" && *reports > 0)
		if err != nil {
			log.Fatalf("skg-server: %v", err)
		}
		fmt.Printf("skg-server: recovered %s (snapshot seq %d, %d WAL records replayed, torn tail: %v)\n",
			*dataDir, db.Recovered.SnapshotSeq, db.Recovered.Replayed, db.Recovered.TornTail)
		if st != nil {
			fmt.Printf("skg-server: ingested %d reports; initial ingest checkpointed\n", st.Process.Connected)
		}
	} else {
		st, err := sys.Ingest(context.Background())
		if err != nil {
			log.Fatalf("skg-server: ingest: %v", err)
		}
		fmt.Printf("skg-server: ingested %d reports\n", st.Process.Connected)
	}
	gs := sys.Store.Stats()
	fmt.Printf("skg-server: knowledge graph: %d nodes, %d edges\n", gs.Nodes, gs.Edges)

	opts := cypher.DefaultOptions()
	opts.ReadOnly = *readOnly
	srv := server.NewWith(sys.Store, sys.Index, opts)
	srv.SetIngestLimit(int64(*ingestMB) << 20)
	if *slowMS > 0 {
		srv.SetSlowQueryLog(time.Duration(*slowMS)*time.Millisecond, log.Default())
	}
	mux := http.NewServeMux()
	mux.Handle("/api/", srv)
	mux.Handle("/healthz", srv)
	mux.Handle("/metrics", srv)
	mux.Handle("/s/", sys.Web()) // the synthetic OSCTI web itself

	// Replication wiring: a durable node is a leader (it can serve
	// snapshots and its WAL tail to replicas, whether or not any ever
	// connect); -replicate-from turns it into a replica instead.
	var repl *replication.Replicator
	switch {
	case db != nil && *replFrom != "":
		repl = replication.NewReplicator(db, *replFrom)
		repl.Log = log.Default()
		repl.RegisterStatus(mux)
		srv.SetReplication(server.Replication{
			Role:      "replica",
			LeaderURL: *replFrom,
			Seq:       repl.AppliedSeq,
			WaitSeq:   repl.WaitApplied,
			Lag:       func() int64 { return repl.Status().LagRecords },
			Health: func() map[string]any {
				st := repl.Status()
				h := map[string]any{
					"dir_locked":  true,
					"data_dir":    *dataDir,
					"state":       st.State,
					"applied_seq": st.CommittedSeq,
					"lag_records": st.LagRecords,
				}
				if err := db.Err(); err != nil {
					h["durability_error"] = err.Error()
				}
				return h
			},
		})
		go func() {
			if err := repl.Run(context.Background()); err != nil {
				log.Printf("skg-server: replication stopped: %v", err)
			}
		}()
		fmt.Printf("skg-server: replica of %s (data dir %s)\n", *replFrom, *dataDir)
	case db != nil:
		leader := &replication.Leader{DB: db, Advertise: *advertise, Log: log.Default()}
		leader.Register(mux)
		srv.SetReplication(server.Replication{
			Role: "primary",
			Seq:  db.CommittedSeq,
			Lag:  func() int64 { return 0 },
			Health: func() map[string]any {
				h := map[string]any{
					"dir_locked":    true,
					"data_dir":      *dataDir,
					"committed_seq": db.CommittedSeq(),
				}
				if err := db.Err(); err != nil {
					h["durability_error"] = err.Error()
				}
				return h
			},
		})
	}

	if db != nil {
		// Watch for durability failures: writes keep succeeding in
		// memory while the WAL is poisoned (a checkpoint self-heals once
		// the directory is writable again), so transitions are loud.
		go func() {
			var last string
			for range time.Tick(2 * time.Second) {
				msg := ""
				if err := db.Err(); err != nil {
					msg = err.Error()
				}
				if msg != last {
					if msg != "" {
						log.Printf("skg-server: DURABILITY DEGRADED: %s", msg)
					} else {
						log.Printf("skg-server: durability restored (checkpoint re-based the log)")
					}
					last = msg
				}
			}
		}()
	}

	httpSrv := &http.Server{Addr: *addr, Handler: mux}
	if db != nil {
		// Snapshot-and-sync on SIGTERM/SIGINT so the next boot replays a
		// short (usually empty) WAL tail. Ordering matters: drain the
		// listener FIRST — a write acknowledged after db.Close detached
		// the mutation hook would reach the store but never the WAL, and
		// silently vanish on the very restart this shutdown prepares.
		sigc := make(chan os.Signal, 1)
		signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
		go func() {
			sig := <-sigc
			fmt.Printf("\nskg-server: %v: draining connections...\n", sig)
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			if err := httpSrv.Shutdown(ctx); err != nil {
				log.Printf("skg-server: shutdown: %v", err)
			}
			cancel()
			fmt.Printf("skg-server: checkpointing %s...\n", *dataDir)
			if err := db.Checkpoint(); err != nil {
				log.Printf("skg-server: shutdown checkpoint: %v", err)
			}
			if err := db.Close(); err != nil {
				log.Printf("skg-server: close: %v", err)
			}
			os.Exit(0)
		}()
	}

	fmt.Printf("skg-server: listening on %s (try /api/stats, /api/search?q=wannacry)\n", *addr)
	err = httpSrv.ListenAndServe()
	if err != nil && err != http.ErrServerClosed {
		log.Fatal(err)
	}
	select {} // Shutdown in flight: the signal goroutine exits the process
}
