// Remote collection: the client/server architecture of a distributed
// debugger. An instrumented run streams its history over TCP to a
// collector daemon (in a real deployment they would be different machines),
// which lands it in a session store; the debugger side opens that store and
// queries, analyzes and renders the history.
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"tracedbg"
	"tracedbg/internal/apps"
	"tracedbg/internal/instr"
	"tracedbg/internal/mp"
	"tracedbg/internal/remote"
	"tracedbg/internal/store"
)

func main() {
	// The "debugger side": a collector daemon listening for history
	// streams, each session landing in its own store under dir.
	dir, err := os.MkdirTemp("", "remote-collect-")
	if err != nil {
		log.Fatalf("session dir: %v", err)
	}
	defer os.RemoveAll(dir)
	d, err := remote.NewDaemon("127.0.0.1:0", remote.DaemonOptions{Dir: dir})
	if err != nil {
		log.Fatalf("collector: %v", err)
	}
	defer d.Close()
	fmt.Printf("collector listening on %s\n", d.Addr())

	// The "target side": an instrumented 6-rank LU sweep streaming its
	// records to the collector while it runs.
	const ranks, session = 6, "lu-sweep"
	client, err := remote.DialOptions(d.Addr(), ranks, remote.ClientOptions{SessionID: session})
	if err != nil {
		log.Fatalf("dial: %v", err)
	}
	in := instr.New(ranks, client, tracedbg.LevelAll)
	if err := in.Run(mp.Config{NumRanks: ranks},
		apps.LU(apps.LUConfig{Cols: 8, Rows: 4, Iters: 2, Seed: 1}, nil)); err != nil {
		log.Fatalf("run: %v", err)
	}
	if err := client.Close(); err != nil {
		log.Fatalf("client close: %v", err)
	}

	// Wait for the session to finalize, then open the collected history.
	for deadline := time.Now().Add(10 * time.Second); !finalized(d, session); {
		if time.Now().After(deadline) {
			log.Fatal("session never finalized")
		}
		time.Sleep(10 * time.Millisecond)
	}
	sst, err := store.Open(d.SessionManifest(session))
	if err != nil {
		log.Fatalf("open session: %v", err)
	}
	defer sst.Close()
	tr, err := sst.Trace()
	if err != nil {
		log.Fatalf("load session: %v", err)
	}
	if err := tr.Validate(); err != nil {
		log.Fatalf("streamed trace invalid: %v", err)
	}
	st := tr.Summarize()
	fmt.Printf("collected %d events, %d messages over the wire\n", st.Records, st.Sends)

	// Query the collected history.
	q, err := tracedbg.CompileQuery(`kind = send && tag = 40 && rank = 2`)
	if err != nil {
		log.Fatalf("query: %v", err)
	}
	hits := q.Run(tr)
	fmt.Printf("query %q matched %d events:\n", q, len(hits))
	for _, id := range hits {
		fmt.Printf("  %s\n", tr.MustAt(id).String())
	}

	// And render the usual big picture from the streamed data.
	fmt.Print(tracedbg.ASCII(tr, tracedbg.RenderOptions{Width: 78}))
}

// finalized reports whether the daemon has sealed the session's store.
func finalized(d *remote.Daemon, session string) bool {
	for _, s := range d.Sessions() {
		if s.ID == session && s.State == "done" {
			return true
		}
	}
	return false
}
