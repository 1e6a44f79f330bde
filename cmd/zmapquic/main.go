// Command zmapquic is the stateless QUIC discovery scanner (the
// paper's ZMap module): it forces Version Negotiation responses with
// reserved-version Initial packets and reports each responding
// address with its advertised version set.
//
// Prefix sweeps run through the sharded campaign engine: the
// permutation is split into -shards deterministic residue classes,
// paced under one global -rate budget, checkpointed to -checkpoint,
// and streamed as NDJSON to -output. A killed campaign picks up
// mid-sweep with -resume:
//
//	zmapquic -prefixes 192.0.2.0/24,198.51.100.0/24 -rate 15000 \
//	    -shards 8 -checkpoint sweep.ckpt -output sweep.ndjson -journal
//	# ... killed ...
//	zmapquic -prefixes 192.0.2.0/24,198.51.100.0/24 -rate 15000 \
//	    -shards 8 -checkpoint sweep.ckpt -output sweep.ndjson -journal -resume
//
// Hitlist scans are a paced loop over the list, a file in qscanner's
// -targets format of which only the addresses are used:
//
//	zmapquic -hitlist v6addrs.txt
//
// SIGINT or SIGTERM stops either gracefully: a sweep writes its final
// checkpoint and closes its output, a hitlist scan prints what has
// answered, both print the summary and exit non-zero. A second signal
// kills.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"net"
	"net/netip"
	"os"
	"strconv"
	"strings"
	"time"

	"quicscan/internal/campaign"
	"quicscan/internal/listscan"
	"quicscan/internal/netbatch"
	"quicscan/internal/pcap"
	"quicscan/internal/telemetry"
	"quicscan/internal/zmapquic"
)

func main() {
	var (
		prefixes  = flag.String("prefixes", "", "comma-separated IPv4 prefixes to sweep")
		hitlist   = flag.String("hitlist", "", "file with one address per line")
		port      = flag.Int("port", 443, "target UDP port")
		rate      = flag.Int("rate", 10000, "probes per second, shared across all workers (0 = unlimited)")
		cooldown  = flag.Duration("cooldown", 3*time.Second, "response collection time after the last probe")
		noPadding = flag.Bool("no-padding", false, "send unpadded probes (RFC-violating ablation)")
		seed      = flag.Uint64("seed", 1, "sweep permutation seed")
		blockfile = flag.String("blocklist", "", "file with excluded prefixes, one per line")
		pcapFile  = flag.String("pcap", "", "write raw probe/response traffic to a pcap file")
		retries   = flag.Int("retries", 0, "extra passes over silent targets (-hitlist only)")
		metrics   = flag.String("metrics-addr", "", "serve Prometheus /metrics, JSON /metricz and pprof on this address")

		shards     = flag.Int("shards", 1, "total shard count of the campaign (-prefixes only)")
		shardList  = flag.String("shard", "", `shard ids this process runs, e.g. "0,3,5" or "0-7" (default: all)`)
		workers    = flag.Int("workers", 0, "concurrent shard workers (default: one per owned shard)")
		checkpoint = flag.String("checkpoint", "", "campaign state file, atomically rewritten while sweeping")
		resume     = flag.Bool("resume", false, "resume from -checkpoint (and the -output journal) instead of starting over")
		ckptEvery  = flag.Duration("checkpoint-every", 2*time.Second, "checkpoint write interval")
		output     = flag.String("output", "-", `NDJSON result stream: "-" stdout, "none" discard, else a file path`)
		journal    = flag.Bool("journal", false, "record every probe in -output, making -resume exact instead of checkpoint-granular")
		recvSocks  = flag.Int("recv-sockets", 1, "SO_REUSEPORT-sharded receive sockets, one collector each (-prefixes only; Linux)")
	)
	flag.Parse()
	// A -prefixes sweep makes one pass, and a -hitlist scan reads only
	// the socket it probes from: answers hashed to another socket of an
	// SO_REUSEPORT group would vanish.
	switch {
	case *prefixes != "" && *retries != 0:
		fatal("-retries applies to -hitlist scans, not to -prefixes sweeps")
	case *prefixes == "" && *recvSocks > 1:
		fatal("-recv-sockets applies to -prefixes sweeps, not to -hitlist scans")
	}

	if *metrics != "" {
		srv, ln, err := telemetry.Default().Serve(*metrics)
		if err != nil {
			fatal("starting metrics server: %v", err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "zmapquic: metrics on http://%s/metrics\n", ln)
	}

	var blocklist *zmapquic.Blocklist
	if *blockfile != "" {
		f, err := os.Open(*blockfile)
		if err != nil {
			fatal("%v", err)
		}
		blocklist, err = zmapquic.ParseBlocklist(f)
		f.Close()
		if err != nil {
			fatal("%v", err)
		}
		fmt.Fprintf(os.Stderr, "zmapquic: blocklist with %d prefixes loaded\n", blocklist.Len())
	}

	// Campaign mode may shard the receive path over an SO_REUSEPORT
	// socket group (one collector per socket, the kernel hashing
	// responses across them). Hitlist mode keeps a single socket.
	nsock := max(*recvSocks, 1)
	conns, err := netbatch.ListenReusePortUDP("udp", ":0", nsock)
	if err != nil {
		fatal("%v", err)
	}
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	if len(conns) < nsock {
		fmt.Fprintf(os.Stderr, "zmapquic: SO_REUSEPORT unavailable here, using one receive socket\n")
	}

	scanner := &zmapquic.Scanner{
		Conn:      conns[0],
		Port:      uint16(*port),
		Cooldown:  *cooldown,
		NoPadding: *noPadding,
		Blocklist: blocklist,
		Retries:   *retries,
	}
	if *pcapFile != "" {
		f, err := os.Create(*pcapFile)
		if err != nil {
			fatal("%v", err)
		}
		defer f.Close()
		scanner.Capture, err = pcap.NewWriter(f)
		if err != nil {
			fatal("%v", err)
		}
	}

	ctx := listscan.SignalContext()
	scanStart := time.Now()
	var scanErr error

	switch {
	case *prefixes != "":
		var ps []netip.Prefix
		for _, s := range strings.Split(*prefixes, ",") {
			p, err := netip.ParsePrefix(strings.TrimSpace(s))
			if err != nil {
				fatal("parsing prefix %q: %v", s, err)
			}
			ps = append(ps, p)
		}
		scanErr = runCampaign(ctx, scanner, conns, ps, campaignFlags{
			seed: *seed, rate: *rate, shards: *shards, shardList: *shardList,
			workers: *workers, checkpoint: *checkpoint, resume: *resume,
			ckptEvery: *ckptEvery, output: *output, journal: *journal,
		})
	case *hitlist != "":
		scanner.Rate = *rate
		targets, rerr := listscan.ReadTargets(*hitlist)
		if rerr != nil {
			fatal("%v", rerr)
		}
		addrs := make([]netip.Addr, len(targets))
		for i, t := range targets {
			addrs[i] = t.Addr
		}
		results, _, err := scanner.ScanAddrs(ctx, addrs)
		if err != nil {
			scanErr = fmt.Errorf("scan: %w", err)
		}
		out := listscan.NewStream(os.Stdout)
		for _, r := range results {
			names := make([]string, len(r.Versions))
			for i, v := range r.Versions {
				names[i] = v.String()
			}
			fmt.Fprintf(out, "%s\t%s\n", r.Addr, strings.Join(names, ","))
		}
		if err := out.Close(); err != nil && scanErr == nil {
			scanErr = fmt.Errorf("writing records: %w", err)
		}
	default:
		fatal("one of -prefixes or -hitlist is required")
	}

	printSummary(scanStart)
	if c := scanner.Capture; c != nil {
		fmt.Fprintf(os.Stderr, "zmapquic: captured %d packets to %s\n", c.Count(), *pcapFile)
		if err := c.Err(); err != nil && scanErr == nil {
			scanErr = fmt.Errorf("capture: %w", err)
		}
	}
	if scanErr != nil {
		fatal("%v", scanErr)
	}
}

// campaignFlags carries the sweep-mode flag values.
type campaignFlags struct {
	seed       uint64
	rate       int
	shards     int
	shardList  string
	workers    int
	checkpoint string
	resume     bool
	ckptEvery  time.Duration
	output     string
	journal    bool
}

// runCampaign drives a prefix sweep through the campaign engine: the
// scanner supplies per-target probing and response validation, the
// engine supplies sharding, pacing, checkpointing and the result
// stream. conns is the receive socket group; every socket gets its
// own collector because SO_REUSEPORT spreads responses across all of
// them. An error is a sweep that stopped early or whose records could
// not be written, with its checkpoint written and its output closed.
func runCampaign(ctx context.Context, scanner *zmapquic.Scanner, conns []net.PacketConn, ps []netip.Prefix, cf campaignFlags) error {
	sweep := zmapquic.NewSweep(cf.seed, ps)
	fmt.Fprintf(os.Stderr, "zmapquic: sweeping %d addresses in %d shards\n", sweep.Total(), cf.shards)

	// Result sink: stdout, discard, or a file (append mode on resume
	// so the journal survives).
	var (
		sink    campaign.Sink
		outFile string
	)
	switch cf.output {
	case "none":
		sink = campaign.NullSink{}
	case "-", "":
		sink = campaign.NewNDJSONSink(os.Stdout, 0, false)
	default:
		outFile = cf.output
		mode := os.O_CREATE | os.O_WRONLY
		if cf.resume {
			mode |= os.O_APPEND
		} else {
			mode |= os.O_TRUNC
		}
		f, err := os.OpenFile(cf.output, mode, 0o644)
		if err != nil {
			fatal("%v", err)
		}
		defer f.Close()
		// Journaling exists to make resume exact, which requires each
		// record to be durable before the cursor moves past it.
		sink = campaign.NewNDJSONSink(f, 0, cf.journal)
	}

	own, err := parseShardList(cf.shardList)
	if err != nil {
		fatal("-shard: %v", err)
	}
	eng, err := campaign.New(campaign.Config{
		Sweep:           sweep,
		Shards:          cf.shards,
		Own:             own,
		Workers:         cf.workers,
		Rate:            cf.rate,
		Probe:           campaign.ProbeWith(scanner),
		Sink:            sink,
		Journal:         cf.journal,
		CheckpointPath:  cf.checkpoint,
		CheckpointEvery: cf.ckptEvery,
	})
	if err != nil {
		fatal("%v", err)
	}

	if cf.resume {
		if cf.checkpoint == "" {
			fatal("-resume requires -checkpoint")
		}
		cp, err := campaign.LoadCheckpoint(cf.checkpoint)
		switch {
		case errors.Is(err, fs.ErrNotExist):
			fmt.Fprintf(os.Stderr, "zmapquic: no checkpoint at %s, starting fresh\n", cf.checkpoint)
		case err != nil:
			fatal("%v", err)
		default:
			if err := eng.Restore(cp); err != nil {
				fatal("%v", err)
			}
		}
		// The journal closes the gap between the last checkpoint and
		// the moment the previous run died.
		if cf.journal && outFile != "" {
			if f, err := os.Open(outFile); err == nil {
				jerr := eng.ReplayJournal(f)
				f.Close()
				if jerr != nil {
					fatal("replaying journal %s: %v", outFile, jerr)
				}
			}
		}
		p := eng.Progress()
		fmt.Fprintf(os.Stderr, "zmapquic: resuming with %d/%d shards done, %d units behind us\n",
			p.ShardsDone, p.Shards, p.Units)
	}

	// First-sighting hits stream into the sink while the engine probes.
	// A sweep whose hits cannot be recorded stops at the first failed
	// write, as a journaling one does.
	ctx, stop := context.WithCancel(ctx)
	defer stop()
	var writeErr error
	hits := 0
	runErr := eng.Sweep(ctx, scanner, conns, func(r zmapquic.Result) {
		hits++
		names := make([]string, len(r.Versions))
		for i, v := range r.Versions {
			names[i] = v.String()
		}
		if err := sink.Write(campaign.Record{Type: campaign.RecordHit, Shard: -1, Addr: r.Addr.String(), Versions: names}); err != nil && writeErr == nil {
			writeErr = err
			stop()
		}
	})
	if err := sink.Close(); err != nil && writeErr == nil {
		writeErr = err
	}
	if writeErr != nil {
		return fmt.Errorf("writing records: %w", writeErr)
	}
	if runErr != nil {
		return fmt.Errorf("campaign: %w", runErr)
	}
	p := eng.Progress()
	fmt.Fprintf(os.Stderr, "zmapquic: campaign complete: %d shards, %d probes, %d hits\n",
		p.Shards, p.Probes, hits)
	return nil
}

// parseShardList parses "-shard 0,3,5" or "-shard 0-7" (ranges and
// ids compose: "0-3,12") into shard ids; empty means every shard.
func parseShardList(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if lo, hi, ok := strings.Cut(part, "-"); ok {
			a, err1 := strconv.Atoi(strings.TrimSpace(lo))
			b, err2 := strconv.Atoi(strings.TrimSpace(hi))
			if err1 != nil || err2 != nil || a > b {
				return nil, fmt.Errorf("shard range %q: want lo-hi with lo <= hi", part)
			}
			for id := a; id <= b; id++ {
				out = append(out, id)
			}
			continue
		}
		id, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("shard id %q: %v", part, err)
		}
		out = append(out, id)
	}
	return out, nil
}

// printSummary reads the registry rather than per-scan stats: the
// snapshot covers all passes of this process and is the same data
// /metrics exports.
func printSummary(scanStart time.Time) {
	snap := telemetry.Default().Snapshot()
	probes := snap.Counters["zmapquic_probes_sent_total"]
	probeBytes := snap.Counters["zmapquic_probe_bytes_total"]
	elapsed := time.Since(scanStart)
	var probesPerSec, bytesPerProbe float64
	if probes > 0 {
		probesPerSec = float64(probes) / elapsed.Seconds()
		bytesPerProbe = float64(probeBytes) / float64(probes)
	}
	fmt.Fprintf(os.Stderr, "zmapquic: probes=%d reprobes=%d bytes=%d responses=%d invalid=%d blocked=%d\n",
		probes, snap.Counters["zmapquic_reprobes_total"],
		probeBytes, snap.Counters["zmapquic_responses_total"],
		snap.Counters["zmapquic_invalid_responses_total"], snap.Counters["zmapquic_blocked_total"])
	fmt.Fprintf(os.Stderr, "zmapquic: %.0f probes/sec, %.1f bytes/probe over %s\n",
		probesPerSec, bytesPerProbe, elapsed.Round(time.Millisecond))
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "zmapquic: "+format+"\n", args...)
	os.Exit(1)
}
