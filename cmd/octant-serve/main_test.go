package main

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestNegativeMeasureWorkersIsUsageError runs the daemon in a child
// process: a negative -measure-workers must exit with status 2 and say
// why, before any survey is built or any port is bound.
func TestNegativeMeasureWorkersIsUsageError(t *testing.T) {
	if os.Getenv("OCTANT_SERVE_RUN_MAIN") == "1" {
		os.Args = []string{"octant-serve", "-addr", "127.0.0.1:0", "-measure-workers", "-1"}
		main()
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^TestNegativeMeasureWorkersIsUsageError$")
	cmd.Env = append(os.Environ(), "OCTANT_SERVE_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("exit = %v, want status 2; output:\n%s", err, out)
	}
	if !strings.Contains(string(out), "serialized measurement loop was removed") {
		t.Errorf("output does not explain the rejection:\n%s", out)
	}
}
