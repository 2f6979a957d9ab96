// Command walcat inspects a topology write-ahead log directory (written
// by spannerd -data or any serve.WithWAL server): it summarizes the
// snapshot checkpoints and log segments in replay order, decodes every
// record through the same codec recovery uses, and reports torn or
// corrupt tails and sequence gaps — within a segment and across segment
// boundaries.
//
// Usage:
//
//	walcat /var/lib/spannerd             # summarize the log directory
//	walcat -records /var/lib/spannerd    # one line per epoch record
//	walcat -check /var/lib/spannerd      # exit 1 on any torn tail, corrupt
//	                                     # record, undecodable payload, or
//	                                     # sequence gap
//	walcat -retention /var/lib/spannerd  # what bounded retention would
//	                                     # keep or delete right now
//
// -check is the integrity gate behind `make wal-smoke`: after a crash
// drill's recovery pass, the directory must scan completely clean — every
// record framed, checksummed, versioned, and carrying a decodable event
// batch with gap-free sequence numbers across the whole segment chain. A
// torn tail is only tolerable in the final segment (the crash point);
// anywhere else it sits under acknowledged data and is counted as a
// problem.
//
// -retention applies wal.Covered, the rule the log's compaction enforces:
// segment wal-b holds records in (b, b'] where b' is the next segment's
// base, so it is deletable exactly when b' does not exceed the newest
// snapshot's epoch. The summary names each keep/delete decision and totals
// the reclaimable bytes. Files are listed by wal.List, oldest first.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"geospanner/internal/maintain"
	"geospanner/internal/wal"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "walcat:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("walcat", flag.ContinueOnError)
	var (
		check     = fs.Bool("check", false, "fail on any torn tail, corrupt record, undecodable payload, or sequence gap")
		records   = fs.Bool("records", false, "print one line per epoch record")
		retention = fs.Bool("retention", false, "summarize what bounded retention would keep or delete")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: walcat [-check] [-records] [-retention] <log directory>")
	}
	dir := fs.Arg(0)
	if !wal.Exists(dir) {
		return fmt.Errorf("%s holds no topology log", dir)
	}

	snaps, segs := wal.List(dir)

	problems := 0
	snapSeq, haveSnap := uint64(0), false
	for _, path := range snaps {
		info, err := wal.ReadSnapshotInfo(path)
		if err != nil {
			problems++
			fmt.Fprintf(out, "snapshot %s: INVALID: %v\n", filepath.Base(path), err)
			continue
		}
		if !haveSnap || info.Seq > snapSeq {
			snapSeq, haveSnap = info.Seq, true
		}
		frac := "unrecorded" // v1 headers predate the field
		if !math.IsNaN(info.FallbackFrac) {
			frac = fmt.Sprintf("%.3f", info.FallbackFrac)
		}
		fmt.Fprintf(out, "snapshot %s: epoch=%d nodes=%d alive=%d radius=%.3f fallback=%s\n",
			filepath.Base(path), info.Seq, info.Nodes, info.Alive, info.Radius, frac)
	}

	// prev chains sequence numbers across segment boundaries: the first
	// record of a segment must follow the last record of the previous one.
	prev, chained := uint64(0), false
	for segIdx, path := range segs {
		res, err := wal.ScanSegment(path)
		if err != nil {
			return err
		}
		first, last := uint64(0), uint64(0)
		if len(res.Records) > 0 {
			first, last = res.Records[0].Seq, res.Records[len(res.Records)-1].Seq
		}
		fmt.Fprintf(out, "segment %s: %d records (epochs %d..%d), %d bytes valid\n",
			filepath.Base(path), len(res.Records), first, last, res.ValidBytes)
		if res.TailErr != nil {
			problems++
			where := "TAIL"
			if segIdx != len(segs)-1 {
				// Damage under acknowledged data, not a crash point.
				where = "NON-FINAL SEGMENT DAMAGE"
			}
			fmt.Fprintf(out, "segment %s: %s: %d bytes undecodable after offset %d: %v\n",
				filepath.Base(path), where, res.TornBytes, res.ValidBytes, res.TailErr)
		}
		for i, rec := range res.Records {
			events, err := maintain.UnmarshalEvents(rec.Payload)
			if err != nil {
				problems++
				fmt.Fprintf(out, "  record %d (epoch %d): BAD PAYLOAD: %v\n", i, rec.Seq, err)
				continue
			}
			if chained && rec.Seq != prev+1 {
				problems++
				kind := "SEQUENCE GAP"
				if i == 0 {
					kind = "CROSS-SEGMENT SEQUENCE GAP"
				}
				fmt.Fprintf(out, "  record %d: %s: epoch %d after %d\n", i, kind, rec.Seq, prev)
			}
			prev, chained = rec.Seq, true
			if *records {
				counts := map[string]int{}
				for _, e := range maintain.EncodeWire(events) {
					counts[e.Kind]++
				}
				fmt.Fprintf(out, "  epoch %d @%d: %d events (move=%d crash=%d join=%d leave=%d) %dB\n",
					rec.Seq, rec.Offset, len(events),
					counts["move"], counts["crash"], counts["join"], counts["leave"], len(rec.Payload))
			}
		}
	}

	if *retention && haveSnap {
		var reclaim int64
		keep := 0
		fmt.Fprintf(out, "retention against snapshot epoch %d:\n", snapSeq)
		for i, path := range segs {
			size := int64(0)
			if fi, err := os.Stat(path); err == nil {
				size = fi.Size()
			}
			if wal.Covered(segs, i, snapSeq) {
				reclaim += size
				fmt.Fprintf(out, "  delete %s (%d bytes, covered by snapshot)\n", filepath.Base(path), size)
			} else {
				keep++
				fmt.Fprintf(out, "  keep   %s (%d bytes)\n", filepath.Base(path), size)
			}
		}
		fmt.Fprintf(out, "  would keep %d segment(s), reclaim %d bytes\n", keep, reclaim)
	}

	if problems > 0 {
		if *check {
			return fmt.Errorf("%d integrity problem(s) in %s", problems, dir)
		}
		fmt.Fprintf(out, "walcat: %d integrity problem(s)\n", problems)
		return nil
	}
	fmt.Fprintf(out, "walcat: ok (%d snapshot(s), %d segment(s))\n", len(snaps), len(segs))
	return nil
}
