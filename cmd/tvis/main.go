// Command tvis renders trace files as time-space diagrams and graphs — the
// command-line counterpart of the NTV and VK visualizers integrated into
// p2d2. It reads a trace file produced by the instrumentation FileSink (or
// records one itself with -app) and emits ASCII, SVG, VK animation frames,
// DOT, or VCG output.
//
// Usage:
//
//	tvis -in run.trace -mode ascii -width 120
//	tvis -app strassen -ranks 8 -mode svg -out strassen.svg
//	tvis -in run.trace -mode vk -window 2000 -step 1000
//	tvis -app lu -ranks 8 -mode html -out report.html
//	tvis -in run.trace -mode commgraph            # DOT on stdout
//	tvis -in run.trace -mode callgraph -rank 0    # VCG on stdout
//
// With -follow, tvis attaches to a still-growing input — a trace another
// process is writing, a rotating segment manifest, or a collector-daemon
// session directory — and re-renders the ASCII diagram as records become
// durable (every -refresh). It draws a final frame and exits when the
// producer finalizes; Ctrl-C detaches early:
//
//	tvis -in sessions/run-a/trace.manifest -follow -refresh 500ms
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"time"

	"tracedbg/internal/apps"
	"tracedbg/internal/graph"
	"tracedbg/internal/instr"
	"tracedbg/internal/mp"
	"tracedbg/internal/store"
	"tracedbg/internal/trace"
	"tracedbg/internal/vis"
)

func main() {
	var (
		in     = flag.String("in", "", "trace file to read (empty: record -app)")
		app    = flag.String("app", "ring", "workload to record when -in is empty: "+strings.Join(apps.Names(), ", "))
		ranks  = flag.Int("ranks", 4, "ranks for -app recording")
		size   = flag.Int("size", 16, "problem size for -app")
		iters  = flag.Int("iters", 3, "iterations for -app")
		seed   = flag.Int64("seed", 42, "seed for -app")
		mode   = flag.String("mode", "ascii", "ascii | svg | html | vk | commgraph | callgraph")
		out    = flag.String("out", "", "output file (default stdout)")
		width  = flag.Int("width", 100, "diagram width")
		t0     = flag.Int64("t0", 0, "viewport start (virtual time)")
		t1     = flag.Int64("t1", 0, "viewport end (0 = full trace)")
		stop   = flag.Int64("stopline", -1, "draw a stopline at this virtual time")
		rank   = flag.Int("rank", 0, "rank for -mode callgraph")
		window  = flag.Int64("window", 0, "VK frame window (virtual time)")
		step    = flag.Int64("step", 0, "VK frame step")
		followF = flag.Bool("follow", false, "follow a still-growing -in live, re-rendering as records arrive (ascii only)")
		refresh = flag.Duration("refresh", 500*time.Millisecond, "re-render cadence with -follow")
	)
	flag.Parse()
	if *followF {
		if *in == "" {
			fmt.Fprintln(os.Stderr, "tvis: -follow needs -in (a live trace, manifest, or session directory)")
			os.Exit(1)
		}
		if *mode != "ascii" {
			fmt.Fprintln(os.Stderr, "tvis: -follow renders ascii only (got -mode", *mode+")")
			os.Exit(1)
		}
		ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
		defer cancel()
		opt := vis.Options{Width: *width, T0: *t0, T1: *t1, Messages: true, Stopline: *stop}
		if err := follow(ctx, *in, *refresh, opt, os.Stdout, true); err != nil {
			fmt.Fprintln(os.Stderr, "tvis:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*in, *app, *ranks, *size, *iters, *seed, *mode, *out, *width, *t0, *t1, *stop, *rank, *window, *step); err != nil {
		fmt.Fprintln(os.Stderr, "tvis:", err)
		os.Exit(1)
	}
}

// follow attaches a live tail cursor to in and re-renders the ASCII diagram
// as records become durable. It returns after drawing a final frame when the
// producer finalizes (io.EOF from the tail) or ctx is cancelled (Ctrl-C).
// When clear is set each frame starts with an ANSI home+clear so the diagram
// redraws in place on a terminal.
func follow(ctx context.Context, in string, refresh time.Duration, opt vis.Options, out io.Writer, clear bool) error {
	if refresh <= 0 {
		refresh = 500 * time.Millisecond
	}
	st, err := store.Open(in, store.Options{Mode: store.ModeLive})
	if err != nil {
		return err
	}
	tc, err := st.Tail(store.TailOptions{})
	if err != nil {
		return err
	}
	defer tc.Close()

	nr := st.NumRanks()
	if nr < 0 {
		nr = 0
	}
	tr := trace.New(nr)
	render := func(status string) {
		if clear {
			fmt.Fprint(out, "\x1b[H\x1b[2J")
		}
		fmt.Fprint(out, vis.ASCII(tr, opt))
		fmt.Fprintf(out, "tvis: following %s: %d records, %d ranks (%s)\n", in, tr.Len(), tr.NumRanks(), status)
	}

	dirty := true                          // draw at least one frame, even over an idle producer
	lastRender := time.Now().Add(-refresh) // so the first frame draws immediately
	for {
		if dirty && time.Since(lastRender) >= refresh {
			render("live")
			dirty = false
			lastRender = time.Now()
		}
		// Bound each wait by the refresh cadence so a lulling producer still
		// gets its pending frame drawn.
		wctx, wcancel := context.WithTimeout(ctx, refresh)
		rec, err := tc.Next(wctx)
		wcancel()
		switch {
		case err == nil:
			if _, aerr := tr.Append(*rec); aerr != nil {
				return aerr
			}
			dirty = true
		case errors.Is(err, io.EOF):
			render("finalized")
			return nil
		case ctx.Err() != nil:
			render("detached")
			return nil
		case errors.Is(err, context.DeadlineExceeded):
			// idle tick; the check at the top of the loop draws any pending frame
		default:
			return err
		}
	}
}

func run(in, app string, ranks, size, iters int, seed int64, mode, out string,
	width int, t0, t1, stop int64, rank int, window, step int64) error {
	tr, err := load(in, app, ranks, size, iters, seed)
	if err != nil {
		return err
	}
	opt := vis.Options{Width: width, T0: t0, T1: t1, Messages: true, Stopline: stop}

	var text string
	switch mode {
	case "ascii":
		text = vis.ASCII(tr, opt)
	case "svg":
		text = vis.SVG(tr, opt)
	case "html":
		text = vis.HTMLReport{Title: "tvis report", Options: opt}.Render(tr)
	case "vk":
		frames := vis.VKFrames(tr, window, step, opt)
		text = strings.Join(frames, "\n")
	case "commgraph":
		text = graph.BuildCommGraph(tr).DOT()
	case "callgraph":
		g := graph.FromTrace(tr, 0)
		text = g.Project(rank).VCG()
	default:
		return fmt.Errorf("unknown mode %q", mode)
	}
	if out == "" {
		_, err = fmt.Print(text)
		return err
	}
	return os.WriteFile(out, []byte(text), 0o644)
}

// load reads a trace file, or records the named workload when in is empty.
func load(in, app string, ranks, size, iters int, seed int64) (*trace.Trace, error) {
	if in != "" {
		// store.OpenMmap sniffs the format (v2, v3, or segment manifest) and
		// salvages what a crashed or interrupted producer managed to write:
		// a truncated history still renders, just flagged on stderr. The
		// materialized Trace is heap-owned, so it outlives the mapping.
		st, err := store.OpenMmap(in)
		if err != nil {
			return nil, err
		}
		tr, err := st.Trace()
		if err != nil {
			return nil, err
		}
		if tr.Incomplete() {
			fmt.Fprintln(os.Stderr, "tvis: warning: history incomplete:", tr.IncompleteReason())
		}
		for _, g := range tr.Gaps() {
			fmt.Fprintf(os.Stderr, "tvis: warning: damaged span at byte %d (%d bytes) quarantined: %s\n",
				g.Offset, g.Bytes, g.Reason)
		}
		return tr, nil
	}
	body, err := apps.Build(app, ranks, apps.Params{Size: size, Iters: iters, Seed: seed})
	if err != nil {
		return nil, err
	}
	sink := instr.NewMemorySink(ranks)
	inst := instr.New(ranks, sink, instr.LevelAll)
	if err := inst.Run(mp.Config{NumRanks: ranks}, body); err != nil {
		// A stalled recording (the buggy Strassen) is still displayable.
		fmt.Fprintln(os.Stderr, "tvis: execution ended with error:", err)
	}
	return sink.Trace(), nil
}
