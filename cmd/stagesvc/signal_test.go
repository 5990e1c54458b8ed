//go:build unix

package main

import (
	"bufio"
	"bytes"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"
)

// helperDaemonEnv marks the child process TestSIGTERMDrain starts: with it
// set, TestHelperDaemon runs main as the daemon instead of skipping.
const helperDaemonEnv = "STAGESVC_TEST_HELPER_DAEMON"

// TestHelperDaemon is not a test of its own: it is the daemon process
// TestSIGTERMDrain starts, running main exactly as the installed binary
// does, signal handling included.
func TestHelperDaemon(t *testing.T) {
	if os.Getenv(helperDaemonEnv) != "1" {
		t.Skip("helper process for TestSIGTERMDrain")
	}
	os.Args = []string{"stagesvc", "-addr", "127.0.0.1:0", "-seed", "3"}
	main()
}

// TestSIGTERMDrain runs the test binary itself as the daemon, waits for it
// to listen, sends SIGTERM, and requires main's signal handling to turn it
// into a graceful drain: exit status 0 and a validated final-schedule
// report.
func TestSIGTERMDrain(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-test.run=^TestHelperDaemon$")
	cmd.Env = append(os.Environ(), helperDaemonEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// Collect every stdout line; signal once the listener is up and again
	// at EOF, which comes when the process exits.
	var out strings.Builder
	ready, eof := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(eof)
		sc := bufio.NewScanner(stdout)
		listening := false
		for sc.Scan() {
			out.WriteString(sc.Text() + "\n")
			if !listening && strings.Contains(sc.Text(), "listening on") {
				listening = true
				close(ready)
			}
		}
	}()

	select {
	case <-ready:
	case <-eof:
		t.Fatalf("daemon exited before listening: %v\nstderr:\n%s", cmd.Wait(), stderr.String())
	case <-time.After(20 * time.Second):
		t.Fatalf("daemon never reported its address\nstderr:\n%s", stderr.String())
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-eof:
	case <-time.After(20 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("daemon exit after SIGTERM: %v\nstdout:\n%s\nstderr:\n%s", err, out.String(), stderr.String())
	}
	for _, want := range []string{"final schedule", "validator: final schedule clean"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("drain output missing %q:\n%s", want, out.String())
		}
	}
}
