package tracedbg_test

import (
	"bytes"
	"context"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestExamples builds every program under examples/ and runs each in its
// own empty directory (lu-frontiers writes its SVG into the working
// directory), requiring exit 0 and one line of the output it exists to show.
func TestExamples(t *testing.T) {
	want := map[string]string{
		"fault-inject":    "because an injected fault dropped the message",
		"lu-frontiers":    "recorded 256 events over 8 ranks",
		"observe":         "== record + stream (101 events) ==",
		"quickstart":      "recorded 30 events, 8 messages",
		"remote-collect":  "collected 190 events, 20 messages over the wire",
		"strassen-debug":  "diagnosis: the destination expression uses jres instead of jres+1",
		"undo-checkpoint": "after undo: markers [6 7 7], rank 0 token=3 (state restored)",
	}
	goTool := filepath.Join(runtime.GOROOT(), "bin", "go")
	if p, err := exec.LookPath("go"); err == nil {
		goTool = p
	}
	bin := t.TempDir()
	if out, err := exec.Command(goTool, "build", "-o", bin+string(filepath.Separator), "./examples/...").CombinedOutput(); err != nil {
		t.Fatalf("go build ./examples/...: %v\n%s", err, out)
	}
	built, err := filepath.Glob(filepath.Join(bin, "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(built) != len(want) {
		t.Errorf("built %d examples, the test knows %d: %v", len(built), len(want), built)
	}
	for _, path := range built {
		name := filepath.Base(path)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			line, ok := want[name]
			if !ok {
				t.Fatalf("no expected output line for example %s", name)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			cmd := exec.CommandContext(ctx, path)
			cmd.Dir = t.TempDir()
			var out bytes.Buffer
			cmd.Stdout = &out
			cmd.Stderr = &out
			if err := cmd.Run(); err != nil {
				t.Fatalf("%s: %v\n%s", name, err, out.String())
			}
			if !strings.Contains(out.String(), line) {
				t.Errorf("%s output lacks %q:\n%s", name, line, out.String())
			}
		})
	}
}
