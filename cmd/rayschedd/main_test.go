package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rayfade/internal/version"
)

// tempOut returns an *os.File test sink and a function reading what was
// written to it.
func tempOut(t *testing.T) (*os.File, func() string) {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "out"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f, func() string {
		b, err := os.ReadFile(f.Name())
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
}

func TestRunVersion(t *testing.T) {
	out, read := tempOut(t)
	errOut, _ := tempOut(t)
	if code := run([]string{"-version"}, out, errOut); code != 0 {
		t.Fatalf("exit code %d", code)
	}
	if !strings.Contains(read(), "rayschedd "+version.Version) {
		t.Fatalf("version output: %q", read())
	}
}

func TestRunBadUsage(t *testing.T) {
	for name, args := range map[string][]string{
		"unknown flag":     {"-definitely-not-a-flag"},
		"positional args":  {"serve"},
		"removed -drain":   {"-drain", "1s"},
		"removed -session": {"-sessions", "0"},
	} {
		out, _ := tempOut(t)
		errOut, _ := tempOut(t)
		if code := run(args, out, errOut); code != 2 {
			t.Errorf("%s: exit code %d, want 2", name, code)
		}
	}
}

func TestRunBindFailure(t *testing.T) {
	out, _ := tempOut(t)
	errOut, readErr := tempOut(t)
	// A malformed address makes ListenAndServe fail immediately.
	if code := run([]string{"-addr", "not:a:valid:addr"}, out, errOut); code != 1 {
		t.Fatalf("exit code %d, want 1\nstderr: %s", code, readErr())
	}
}
