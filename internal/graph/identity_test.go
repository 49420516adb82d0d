package graph

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/arcs.golden from the code under test")

// graphDigest hashes everything a reader of the graph can see: every node,
// every field of every arc in Arcs() order (message ids included), and the
// number of dissemination rounds.
func graphDigest(g *TraceGraph) string {
	h := sha256.New()
	for _, n := range g.Nodes() {
		fmt.Fprintf(h, "n %d %d %d %q %d %d\n", n.ID, n.Kind, n.Rank, n.Name, n.A, n.B)
	}
	for _, a := range g.Arcs() {
		fmt.Fprintf(h, "a %d %d %d %d %d %d %d %d %v %t\n", a.From, a.To, a.Kind, a.Tag,
			a.Rank, a.FirstSeq, a.LastSeq, a.Count, a.MsgIDs, a.Truncated)
	}
	fmt.Fprintf(h, "m %d\n", g.Merges())
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestArcsIdentityGolden pins the graph's output across changes to its
// bookkeeping: testdata/arcs.golden was generated (-update) by the code
// that recounted every arc on every round, and whatever maintains the
// indexes now must produce the same nodes, arcs and round count.
func TestArcsIdentityGolden(t *testing.T) {
	skipUnderRace(t)
	var sb strings.Builder
	for _, c := range corpus(t) {
		for _, limit := range corpusLimits {
			g := FromTrace(c.tr, limit)
			fmt.Fprintf(&sb, "%s limit=%d nodes=%d arcs=%d events=%d merges=%d sha256=%s\n",
				c.name, limit, len(g.Nodes()), g.ArcCount(), g.EventCount(), g.Merges(), graphDigest(g))
		}
	}
	const path = "testdata/arcs.golden"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, wantLines := strings.Split(sb.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(got), len(wantLines)); i++ {
		g, w := "<missing>", "<missing>"
		if i < len(got) {
			g = got[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("line %d:\n got %s\nwant %s", i+1, g, w)
		}
	}
}
