package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"dbpl/client"
	"dbpl/internal/persist/intrinsic"
	"dbpl/internal/value"
)

// buildDbpl compiles the dbpl binary once per test binary into a temp
// dir, for subprocess signal tests.
func buildDbpl(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("skipping subprocess build in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "dbpl")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// waitFor scans lines from r until one contains want, relaying progress
// to stop the test hanging silently on a protocol change.
func waitFor(t *testing.T, r *bufio.Scanner, want string) string {
	t.Helper()
	for r.Scan() {
		if strings.Contains(r.Text(), want) {
			return r.Text()
		}
	}
	t.Fatalf("subprocess exited before printing %q (scan err: %v)", want, r.Err())
	return ""
}

// TestReplSignalClosesStore is the regression test for the ISSUE's
// satellite: a REPL session holding an open intrinsic store, killed with
// SIGINT, must close the store through the graceful path (exit 130, the
// diagnostic on stderr) and leave the log reopenable with every committed
// root intact — not exit with the store abandoned.
func TestReplSignalClosesStore(t *testing.T) {
	bin := buildDbpl(t)
	storePath := filepath.Join(t.TempDir(), "repl.log")

	cmd := exec.Command(bin, "-store", storePath)
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// Commit a root, then sync on a printed marker so the signal lands
	// only after the commit group is durable.
	io.WriteString(stdin, "persistent X : Int = 7;\n")
	io.WriteString(stdin, "commit();\n")
	io.WriteString(stdin, `print("SYNCED");`+"\n")
	sc := bufio.NewScanner(stdout)
	waitFor(t, sc, "SYNCED")

	if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	err = cmd.Wait()
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("Wait: %v (want exit error 130)", err)
	}
	if code := ee.ExitCode(); code != 130 {
		t.Errorf("exit code = %d, want 130 (128+SIGINT)", code)
	}
	if !strings.Contains(stderr.String(), "closing store") {
		t.Errorf("stderr missing the graceful-close diagnostic; got %q", stderr.String())
	}

	// The store reopens with the committed root intact.
	st, err := intrinsic.Open(storePath)
	if err != nil {
		t.Fatalf("store did not survive SIGINT: %v", err)
	}
	defer st.Close()
	r, ok2 := st.Root("X")
	if !ok2 {
		t.Fatal("root X missing after SIGINT")
	}
	if !value.Equal(r.Value, value.Int(7)) {
		t.Errorf("X = %s, want 7", r.Value)
	}
}

// TestServeSignalDrains: the serve verb on SIGTERM drains the server,
// closes the store, and exits 0 — the same shared graceful path.
func TestServeSignalDrains(t *testing.T) {
	bin := buildDbpl(t)
	storePath := filepath.Join(t.TempDir(), "serve.log")

	cmd := exec.Command(bin, "serve", "-addr", "127.0.0.1:0", storePath)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	sc := bufio.NewScanner(stdout)
	banner := waitFor(t, sc, "dbpl: serving")
	// The banner's "on ADDR" token is the protocol for finding the port.
	fields := strings.Fields(banner)
	var addr string
	for i, f := range fields {
		if f == "on" && i+1 < len(fields) {
			addr = fields[i+1]
		}
	}
	if addr == "" {
		t.Fatalf("no address in banner %q", banner)
	}

	// The server must actually be reachable before we shoot it.
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	conn.Close()

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitFor(t, sc, "server stopped")
	if err := cmd.Wait(); err != nil {
		t.Fatalf("serve exit after SIGTERM: %v (stderr: %s)", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "draining server and closing store") {
		t.Errorf("stderr missing the drain diagnostic; got %q", stderr.String())
	}

	// The drain left the log at a durable group boundary; it reopens cleanly.
	st, err := intrinsic.Open(storePath)
	if err != nil {
		t.Fatalf("store did not survive SIGTERM: %v", err)
	}
	st.Close()
}

// TestServeSignalDrainWaitsForInflight is the regression test for the
// shutdown race: Shutdown closes the listener first, so srv.Serve returns
// while the signal handler is still draining — runServe must wait for the
// handler to finish (drain, the committer's last fsync, store close) before the
// process exits, instead of killing in-flight requests mid-commit. The
// server is signaled while client goroutines are streaming PUTs; the
// handler's completion marker must appear, exit must be clean, and every
// acknowledged PUT must be durable in the reopened log.
func TestServeSignalDrainWaitsForInflight(t *testing.T) {
	bin := buildDbpl(t)
	storePath := filepath.Join(t.TempDir(), "busy.log")

	cmd := exec.Command(bin, "serve", "-addr", "127.0.0.1:0", storePath)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	sc := bufio.NewScanner(stdout)
	banner := waitFor(t, sc, "dbpl: serving")
	fields := strings.Fields(banner)
	var addr string
	for i, f := range fields {
		if f == "on" && i+1 < len(fields) {
			addr = fields[i+1]
		}
	}
	if addr == "" {
		t.Fatalf("no address in banner %q", banner)
	}

	c, err := client.Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Stream PUTs until the drain refuses them; every acknowledged write
	// must survive the shutdown.
	const writers = 4
	var mu sync.Mutex
	var acked []string
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				name := fmt.Sprintf("w%d.n%d", w, i)
				if err := c.Put(name, value.Int(int64(i)), nil); err != nil {
					return // drain refusal or dead conn: shutdown reached us
				}
				mu.Lock()
				acked = append(acked, name)
				mu.Unlock()
			}
		}(w)
	}

	// Let traffic flow, then shoot the server mid-stream.
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(acked)
		mu.Unlock()
		if n >= 20 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("writers never got going")
		}
		time.Sleep(time.Millisecond)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitFor(t, sc, "server stopped")
	if err := cmd.Wait(); err != nil {
		t.Fatalf("serve exit after SIGTERM: %v (stderr: %s)", err, stderr.String())
	}
	wg.Wait()

	// "server stopped" and process exit may only follow the handler's full
	// graceful path; its completion marker proves the wait happened.
	if !strings.Contains(stderr.String(), "dbpl: store closed") {
		t.Errorf("process exited before the signal handler finished; stderr: %q", stderr.String())
	}

	st, err := intrinsic.Open(storePath)
	if err != nil {
		t.Fatalf("store did not survive SIGTERM under load: %v", err)
	}
	defer st.Close()
	mu.Lock()
	defer mu.Unlock()
	for _, name := range acked {
		if _, ok := st.Root(name); !ok {
			t.Errorf("acknowledged root %q lost by shutdown", name)
		}
	}
}
