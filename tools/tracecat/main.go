// Command tracecat replays a JSONL protocol trace (written by
// `experiments -exp trace -trace-out f.jsonl` or any obs.JSONL sink) into
// a human-readable per-round timeline: one block per (trial, stage) run,
// one line per simulator round with its send/deliver/drop/retransmission
// and state-transition counts. Epoch traces of the live topology service
// (spannerd / internal/serve) render as an epoch timeline instead: one
// line per maintenance epoch with its applied/rejected split and
// patch-vs-recompute mode, plus the published snapshot's alive and edge
// counts.
//
// Usage:
//
//	tracecat trace.jsonl            # timeline from a file
//	tracecat < trace.jsonl          # timeline from stdin
//	tracecat -summary trace.jsonl   # per-stage metrics rollup instead
//	tracecat -check trace.jsonl     # strict schema validation, exit 1 on
//	                                # the first malformed or unknown event
//
// -check is the schema gate behind `make trace-smoke`: every line must be
// a JSON object with only known Event fields and a known kind.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"

	"geospanner/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tracecat:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("tracecat", flag.ContinueOnError)
	var (
		check   = fs.Bool("check", false, "validate every line against the event schema (strict) and print a count; no timeline")
		summary = fs.Bool("summary", false, "print the per-stage metrics rollup instead of the round timeline")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	in := os.Stdin
	name := "stdin"
	if fs.NArg() > 0 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		in, name = f, fs.Arg(0)
	}
	events, err := decode(in, name, *check)
	if err != nil {
		return err
	}
	switch {
	case *check:
		fmt.Fprintf(out, "%s: %d events, schema ok\n", name, len(events))
	case *summary:
		m := obs.NewMetrics()
		for _, e := range events {
			m.Emit(e)
		}
		fmt.Fprint(out, m.String())
	default:
		timeline(out, events)
	}
	return nil
}

// decode parses the stream line by line. In strict mode any unknown field
// or kind fails with its 1-based line number; otherwise unknown kinds are
// kept (future sinks may emit more) and blank lines are skipped either way.
func decode(r io.Reader, name string, strict bool) ([]obs.Event, error) {
	var events []obs.Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		e, err := obs.DecodeJSONL(line, strict)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %w", name, lineNo, err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return events, nil
}

// roundRow accumulates one simulator round of one (trial, stage) run.
type roundRow struct {
	round                  int
	sent, delivered, drops int
	retrans, states        int
}

// timeline prints one block per (trial, stage) run in stream order. The
// stream is already deterministic — trials are merged in index order and
// rounds advance monotonically inside a stage — so a single pass suffices.
func timeline(out io.Writer, events []obs.Event) {
	var rows []roundRow
	var cur *roundRow
	row := func(round int) *roundRow {
		if cur == nil || cur.round != round {
			rows = append(rows, roundRow{round: round})
			cur = &rows[len(rows)-1]
		}
		return cur
	}
	flush := func(e obs.Event) {
		for _, r := range rows {
			fmt.Fprintf(out, "  round %3d: sent=%-5d delivered=%-5d drops=%-4d retrans=%-4d states=%d\n",
				r.round, r.sent, r.delivered, r.drops, r.retrans, r.states)
		}
		rows, cur = rows[:0], nil
		status := "quiescent"
		if e.Note != "" {
			status = e.Note
		}
		fmt.Fprintf(out, "  end: rounds=%d msgs=%d wall=%.2fms (%s)\n", e.Round, e.N, float64(e.WallNS)/1e6, status)
	}
	for _, e := range events {
		switch e.Kind {
		case obs.KindStageStart:
			rows, cur = rows[:0], nil
			fmt.Fprintf(out, "trial %d stage %s: n=%d\n", e.Trial, e.Stage, e.N)
		case obs.KindStageEnd:
			flush(e)
		case obs.KindRound:
			r := row(e.Round)
			r.sent += e.Sent
			r.delivered += e.Delivered
		case obs.KindSend:
			row(e.Round) // sends are counted by the round event; just open the row
		case obs.KindDrop:
			row(e.Round).drops++
		case obs.KindRetransmit:
			row(e.Round).retrans += e.N
		case obs.KindState:
			row(e.Round).states++
		case obs.KindStuck:
			fmt.Fprintf(out, "  stuck: node %d (%s)\n", e.From, e.Note)
		case obs.KindShard:
			hitRate := 0.0
			if tot := e.Sent + e.Delivered; tot > 0 {
				hitRate = float64(e.Sent) / float64(tot)
			}
			fmt.Fprintf(out, "  shard %d: nodes=%d work=%.2fms pool_hit=%.0f%%\n",
				e.From, e.N, float64(e.WallNS)/1e6, hitRate*100)
		case obs.KindQuiesceWait:
			fmt.Fprintf(out, "  waiting at round %d: %d in flight\n", e.Round, e.N)
		case obs.KindEpoch:
			fmt.Fprintf(out, "epoch %d [%s]: applied=%d rejected=%d roles=%d wall=%.2fms\n",
				e.Round, e.Note, e.N, e.Delivered, e.Sent, float64(e.WallNS)/1e6)
		case obs.KindSnapshot:
			fmt.Fprintf(out, "  snapshot %d: alive=%d udg_edges=%d backbone_edges=%d\n",
				e.Round, e.N, e.Sent, e.Delivered)
		}
	}
}
