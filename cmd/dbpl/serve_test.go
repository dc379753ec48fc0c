package main

import (
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestServeUsageNamesEveryFlag: `dbpl serve` with no store is a usage
// error whose synopsis names every flag `dbpl serve -h` lists.
func TestServeUsageNamesEveryFlag(t *testing.T) {
	err := runServe(nil, io.Discard)
	if err == nil || !strings.HasPrefix(err.Error(), "usage: dbpl serve") {
		t.Fatalf("runServe() = %v, want a usage error", err)
	}
	help, _ := exec.Command(buildDbpl(t), "serve", "-h").CombinedOutput()
	flags := regexp.MustCompile(`(?m)^  -([a-z-]+)`).FindAllStringSubmatch(string(help), -1)
	if len(flags) == 0 {
		t.Fatalf("serve -h listed no flags:\n%s", help)
	}
	for _, f := range flags {
		if !strings.Contains(err.Error(), "[-"+f[1]+" ") && !strings.Contains(err.Error(), "[-"+f[1]+"]") {
			t.Errorf("usage %q omits -%s", err, f[1])
		}
	}
}

// TestServeRefusesAsyncDurability: -durability accepts only per-commit
// and group. async is an error that names group, raised before the store
// is opened, so no log file is created.
func TestServeRefusesAsyncDurability(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.log")
	err := runServe([]string{"-durability", "async", "-addr", "127.0.0.1:0", path}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "group") {
		t.Fatalf("async durability = %v, want an error naming group", err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("refused async durability touched the log: stat = %v", err)
	}
}
