// Undo and checkpointing: the parallel undo operation replays to the
// previous stop, and the paper's proposed checkpointing extension keeps a
// logarithmic backlog of snapshots so resuming near a target is much
// cheaper than re-executing from the start.
package main

import (
	"fmt"
	"log"
	"time"

	"tracedbg"
	"tracedbg/internal/apps"
	"tracedbg/internal/instr"
	"tracedbg/internal/mp"
)

func main() {
	undoDemo()
	checkpointDemo()
}

// undoDemo: stop a run mid-way, resume it, then undo back to the stop.
func undoDemo() {
	fmt.Println("--- parallel undo ---")
	// The ranks start only once the breakpoint is armed: a rank 0 that
	// entered Hop before BreakFunc would send, then wait for a message from
	// a rank stopped at the breakpoint, and never stop itself.
	armed := make(chan struct{})
	ring := apps.Ring(6, nil)
	d := tracedbg.New(tracedbg.Target{
		Cfg:  tracedbg.Config{NumRanks: 3},
		Body: func(c *instr.Ctx) { <-armed; ring(c) },
	})
	s, err := d.Launch()
	if err != nil {
		log.Fatalf("launch: %v", err)
	}
	// Break inside Hop and stop rank 0 there. Release the other ranks (they
	// run ahead until they need a message rank 0 has not sent yet), then
	// step rank 0 through a few events.
	s.BreakFunc("Hop")
	close(armed)
	if _, err := s.WaitStop(0, 30*time.Second); err != nil {
		log.Fatalf("stop: %v", err)
	}
	s.ClearBreaks()
	for _, st := range s.Stops() {
		if st.Rank != 0 {
			if err := s.Continue(st.Rank); err != nil {
				log.Fatalf("continue: %v", err)
			}
		}
	}
	for i := 0; i < 4; i++ {
		if err := s.Step(0); err != nil {
			log.Fatalf("step: %v", err)
		}
		if _, err := s.WaitStop(0, 30*time.Second); err != nil {
			log.Fatalf("step stop: %v", err)
		}
	}
	vec := s.Counters()
	tok, _ := s.ReadVar(0, "token")
	fmt.Printf("stopped at markers %v, rank 0 token=%s\n", vec, tok)

	// Accidentally continue past the point of interest...
	s.ClearBreaks()
	if err := s.Finish(); err != nil {
		log.Fatalf("finish: %v", err)
	}
	tokEnd, _ := s.ReadVar(0, "token")
	fmt.Printf("ran to completion, token=%s — too far!\n", tokEnd)

	// ...and undo: a controlled replay back to the previous stop vector.
	u, err := s.Undo()
	if err != nil {
		log.Fatalf("undo: %v", err)
	}
	if _, err := u.WaitAllStopped(30 * time.Second); err != nil {
		log.Fatalf("undo stops: %v", err)
	}
	tokUndo, _ := u.ReadVar(0, "token")
	fmt.Printf("after undo: markers %v, rank 0 token=%s (state restored)\n", u.Counters(), tokUndo)
	if err := u.Finish(); err != nil {
		log.Fatalf("undo finish: %v", err)
	}
}

// checkpointDemo: snapshots with logarithmic backlog shorten replays.
func checkpointDemo() {
	fmt.Println("\n--- checkpointed replay (the paper's §6 extension) ---")
	const ranks, iters = 4, 200
	store := tracedbg.NewCheckpointStore()
	cfg := apps.JacobiConfig{Cells: 64, Iters: iters, Seed: 9, CheckpointEvery: 10, Store: store}

	out := apps.NewJacobiOut()
	in := instr.New(ranks, instr.NullSink{}, tracedbg.LevelAll)
	start := time.Now()
	if err := in.Run(mp.Config{NumRanks: ranks}, apps.Jacobi(cfg, out)); err != nil {
		log.Fatalf("run: %v", err)
	}
	fullTime := time.Since(start)
	fmt.Printf("%d iterations with checkpoints every %d: %d snapshots retained (logarithmic backlog)\n",
		iters, cfg.CheckpointEvery, store.Len())
	fmt.Println(store)

	// Replay target: the state around iteration 150. Without checkpoints a
	// replay re-executes 150 iterations; with them it resumes from the best
	// snapshot at or before the target.
	target := 150
	var best *tracedbg.Snapshot
	for _, s := range store.Snapshots() {
		if s.Iter <= target {
			c := s
			best = &c
		}
	}
	if best == nil {
		log.Fatal("no usable snapshot")
	}
	resume := apps.JacobiConfig{Cells: 64, Iters: iters, Seed: 9, Resume: best}
	out2 := apps.NewJacobiOut()
	in2 := instr.New(ranks, instr.NullSink{}, tracedbg.LevelAll)
	start = time.Now()
	if err := in2.Run(mp.Config{NumRanks: ranks}, apps.Jacobi(resume, out2)); err != nil {
		log.Fatalf("resume: %v", err)
	}
	resumeTime := time.Since(start)

	// The resumed run reproduces the full run's final state.
	for r := 0; r < ranks; r++ {
		a, _ := out.Checksum(r)
		b, _ := out2.Checksum(r)
		if a != b {
			log.Fatalf("rank %d: resumed checksum %g != full %g", r, b, a)
		}
	}
	fmt.Printf("resumed from snapshot at iteration %d: %d instead of %d iterations re-executed\n",
		best.Iter, iters-(best.Iter+1), iters)
	fmt.Printf("full run %v, resumed run %v; final states identical\n",
		fullTime.Round(time.Microsecond), resumeTime.Round(time.Microsecond))
}
