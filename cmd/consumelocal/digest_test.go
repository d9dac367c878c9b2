package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// figureDigests is the file of committed figure digests, in sha256sum's
// format: "<hex>  <name>" per line, "#" lines are comments.
const figureDigests = "testdata/figures.sha256"

// TestFigureDigests pins every figure the reproduction prints at small
// scale, byte for byte: the text of `all -scale 0.003 -days 14` and each
// TSV it writes must hash to the committed digests. A change that means
// to move a figure updates the file, with the lines this test logs.
func TestFigureDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the digests were taken on amd64; on %s the compiler may fuse multiply-adds, which changes the last bits of the figures", runtime.GOARCH)
	}
	want := readDigests(t, figureDigests)

	dir := t.TempDir()
	var text bytes.Buffer
	if err := run([]string{"all", "-scale", "0.003", "-days", "14", "-tsv", dir}, &text); err != nil {
		t.Fatal(err)
	}
	got := map[string]string{"stdout": digest(text.Bytes())}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		got[e.Name()] = digest(data)
	}

	union := maps.Clone(want)
	maps.Copy(union, got)
	names := slices.Sorted(maps.Keys(union))
	var differ []string
	var lines strings.Builder
	for _, name := range names {
		if got[name] != want[name] {
			differ = append(differ, name)
		}
		if sum, ok := got[name]; ok {
			fmt.Fprintf(&lines, "%s  %s\n", sum, name)
		}
	}
	if len(differ) > 0 {
		t.Logf("digests of this tree's output:\n%s", lines.String())
		t.Fatalf("%d of %d figure files differ from %s: %s", len(differ), len(names), figureDigests, strings.Join(differ, ", "))
	}
}

func digest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// readDigests parses a sha256sum-format file into name → hex digest.
func readDigests(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	digests := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sum, name, ok := strings.Cut(line, "  ")
		if !ok {
			t.Fatalf("%s: malformed line %q", path, line)
		}
		digests[name] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(digests) == 0 {
		t.Fatalf("%s holds no digests", path)
	}
	return digests
}
