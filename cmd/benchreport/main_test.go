package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets a test re-run the command's main in a child process:
// with BENCHREPORT_ARGS set, the test binary becomes benchreport with
// those (newline-separated) arguments.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("BENCHREPORT_ARGS"); ok {
		os.Args = append([]string{"benchreport"}, strings.Split(args, "\n")...)
		if args == "" {
			os.Args = os.Args[:1]
		}
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs benchreport with args in dir and returns its exit code
// and stderr.
func runMain(t *testing.T, dir string, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "BENCHREPORT_ARGS="+strings.Join(args, "\n"))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return ee.ExitCode(), stderr.String()
	}
	if err != nil {
		t.Fatal(err)
	}
	return 0, stderr.String()
}

// TestOutRequired pins that a run without -out prints the usage and
// exits 2 before benchmarking anything, leaving the snapshot that an
// old default name pointed at untouched.
func TestOutRequired(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "BENCH_10.json")
	if err := os.WriteFile(snap, []byte("committed\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{nil, {"-bench", "BenchmarkNothing", "-soak", "0"}} {
		code, stderr := runMain(t, dir, args...)
		if code != 2 {
			t.Errorf("args %q: exit %d, want 2 (stderr %q)", args, code, stderr)
		}
		if !strings.Contains(stderr, "-out is required") || !strings.Contains(stderr, "Usage") {
			t.Errorf("args %q: stderr lacks the error and usage:\n%s", args, stderr)
		}
		if b, _ := os.ReadFile(snap); string(b) != "committed\n" {
			t.Fatalf("args %q: snapshot overwritten: %q", args, b)
		}
	}
}

// TestCompareNeedsNoOut pins that compare mode still runs without -out.
func TestCompareNeedsNoOut(t *testing.T) {
	dir := t.TempDir()
	rep := `{"entries":{"BenchmarkX":{"ns_per_op":100,"allocs_per_op":0,"bytes_per_op":0,"iterations":1}}}`
	for _, name := range []string{"old.json", "new.json"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(rep), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if code, stderr := runMain(t, dir, "-compare", "old.json", "new.json"); code != 0 {
		t.Fatalf("compare exit %d, want 0:\n%s", code, stderr)
	}
}
