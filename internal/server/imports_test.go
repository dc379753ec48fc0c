package server_test

import (
	"go/build"
	"testing"
)

// TestImportBoundary: the server answers every read from index.Set alone,
// so its non-test files import neither the library core.Database nor the
// learned access-path planner.
func TestImportBoundary(t *testing.T) {
	pkg, err := build.ImportDir(".", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range pkg.Imports {
		if imp == "dbpl/internal/core" || imp == "dbpl/internal/plan" {
			t.Errorf("internal/server imports %s", imp)
		}
	}
}
