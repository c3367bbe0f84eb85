package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// ctxDeafModule is a throwaway module with one ctxloop finding (fixable)
// and one rawrand finding (not fixable).
func ctxDeafModule(t *testing.T) string {
	t.Helper()
	return writeModule(t, map[string]string{
		"go.mod": goMod,
		"main.go": `package main

import (
	"context"
	"math/rand"
)

func pump(ctx context.Context, out chan int) {
	for {
		out <- rand.Intn(10)
	}
}

func main() {
	pump(context.Background(), make(chan int))
}
`,
	})
}

func TestBinaryList(t *testing.T) {
	bin := buildBinary(t)
	dir := writeModule(t, map[string]string{"go.mod": goMod})
	stdout, _, code := runLint(t, bin, dir, "-list")
	if code != 0 {
		t.Fatalf("-list exit = %d", code)
	}
	for _, name := range []string{"rawrand", "propdiv", "walltime", "lockcopy", "errdrop",
		"proptaint", "detorder", "wirecompat", "ctxloop", "rawserver"} {
		if !strings.Contains(stdout, name) {
			t.Errorf("-list output missing %q:\n%s", name, stdout)
		}
	}
}

func TestBinaryEnableDisable(t *testing.T) {
	bin := buildBinary(t)
	dir := ctxDeafModule(t)

	// Everything on: both findings.
	stdout, _, code := runLint(t, bin, dir, "./...")
	if code != 1 || !strings.Contains(stdout, "[ctxloop]") || !strings.Contains(stdout, "[rawrand]") {
		t.Fatalf("full run: exit=%d\n%s", code, stdout)
	}

	// -enable narrows to the named analyzers.
	stdout, _, code = runLint(t, bin, dir, "-enable", "ctxloop", "./...")
	if code != 1 || strings.Contains(stdout, "[rawrand]") || !strings.Contains(stdout, "[ctxloop]") {
		t.Errorf("-enable ctxloop: exit=%d\n%s", code, stdout)
	}

	// -disable removes only the named ones.
	stdout, _, code = runLint(t, bin, dir, "-disable", "ctxloop", "./...")
	if code != 1 || strings.Contains(stdout, "[ctxloop]") || !strings.Contains(stdout, "[rawrand]") {
		t.Errorf("-disable ctxloop: exit=%d\n%s", code, stdout)
	}

	// Mutually exclusive and unknown-name errors are usage errors.
	if _, stderr, code := runLint(t, bin, dir, "-enable", "ctxloop", "-disable", "rawrand", "./..."); code != 2 || !strings.Contains(stderr, "mutually exclusive") {
		t.Errorf("enable+disable: exit=%d stderr:\n%s", code, stderr)
	}
	if _, stderr, code := runLint(t, bin, dir, "-disable", "nosuch", "./..."); code != 2 || !strings.Contains(stderr, "unknown analyzer") {
		t.Errorf("-disable nosuch: exit=%d stderr:\n%s", code, stderr)
	}
}

func TestBinaryJSON(t *testing.T) {
	bin := buildBinary(t)
	dir := ctxDeafModule(t)
	stdout, _, code := runLint(t, bin, dir, "-json", "./...")
	if code != 1 {
		t.Fatalf("-json exit = %d\n%s", code, stdout)
	}
	var findings []struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Column   int    `json:"column"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
		Fixable  bool   `json:"fixable"`
	}
	if err := json.Unmarshal([]byte(stdout), &findings); err != nil {
		t.Fatalf("-json output does not parse: %v\n%s", err, stdout)
	}
	if len(findings) != 2 {
		t.Fatalf("got %d JSON findings, want 2:\n%s", len(findings), stdout)
	}
	byAnalyzer := map[string]bool{}
	for _, f := range findings {
		byAnalyzer[f.Analyzer] = f.Fixable
		if f.File == "" || f.Line == 0 || f.Message == "" {
			t.Errorf("incomplete JSON finding: %+v", f)
		}
	}
	if !byAnalyzer["ctxloop"] {
		t.Errorf("ctxloop finding should be fixable: %v", byAnalyzer)
	}
	if fixable, ok := byAnalyzer["rawrand"]; !ok || fixable {
		t.Errorf("rawrand finding should be present and not fixable: %v", byAnalyzer)
	}

	// A clean selection emits an empty JSON array, not nothing.
	stdout, _, code = runLint(t, bin, dir, "-json", "-enable", "errdrop", "./...")
	if code != 0 || strings.TrimSpace(stdout) != "[]" {
		t.Errorf("clean -json run: exit=%d output %q", code, stdout)
	}
}

func TestBinaryBaseline(t *testing.T) {
	bin := buildBinary(t)
	dir := ctxDeafModule(t)
	baseline := filepath.Join(dir, "lint-baseline.txt")

	// Write the baseline, then a run against it is clean.
	stdout, stderr, code := runLint(t, bin, dir, "-baseline", baseline, "-write-baseline", "./...")
	if code != 0 {
		t.Fatalf("-write-baseline: exit=%d\n%s%s", code, stdout, stderr)
	}
	stdout, stderr, code = runLint(t, bin, dir, "-baseline", baseline, "./...")
	if code != 0 || strings.TrimSpace(stdout) != "" {
		t.Fatalf("baselined run: exit=%d stdout:\n%s stderr:\n%s", code, stdout, stderr)
	}

	// Fixing one finding leaves its baseline entry stale: warned on
	// stderr, still exit 0.
	main := filepath.Join(dir, "main.go")
	src, err := os.ReadFile(main)
	if err != nil {
		t.Fatal(err)
	}
	fixed := strings.Replace(string(src), "for {\n\t\tout <- rand.Intn(10)\n\t}",
		"for {\n\t\tselect {\n\t\tcase out <- rand.Intn(10):\n\t\tcase <-ctx.Done():\n\t\t\treturn\n\t\t}\n\t}", 1)
	if fixed == string(src) {
		t.Fatal("test replacement did not apply")
	}
	if err := os.WriteFile(main, []byte(fixed), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout, stderr, code = runLint(t, bin, dir, "-baseline", baseline, "./...")
	if code != 0 {
		t.Fatalf("after fix: exit=%d stdout:\n%s", code, stdout)
	}
	if !strings.Contains(stderr, "stale baseline entry") {
		t.Errorf("expected stale-entry warning, stderr:\n%s", stderr)
	}
}

func TestBinaryFix(t *testing.T) {
	bin := buildBinary(t)
	dir := ctxDeafModule(t)

	stdout, stderr, code := runLint(t, bin, dir, "-fix", "./...")
	// The ctxloop finding is fixed; the rawrand finding survives.
	if code != 1 || !strings.Contains(stdout, "applied 1 fixes") || !strings.Contains(stdout, "[rawrand]") {
		t.Fatalf("-fix: exit=%d stdout:\n%s stderr:\n%s", code, stdout, stderr)
	}
	src, err := os.ReadFile(filepath.Join(dir, "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(src), "case <-ctx.Done():") {
		t.Errorf("fix not applied to source:\n%s", src)
	}

	// Second -fix run: nothing left to apply, ctxloop stays quiet.
	stdout, _, code = runLint(t, bin, dir, "-fix", "./...")
	if !strings.Contains(stdout, "applied 0 fixes") || strings.Contains(stdout, "[ctxloop]") {
		t.Errorf("second -fix run: exit=%d stdout:\n%s", code, stdout)
	}
}

func TestBinaryWirelock(t *testing.T) {
	bin := buildBinary(t)
	dir := writeModule(t, map[string]string{
		"go.mod": goMod,
		"main.go": `package main

func main() {}
`,
	})
	stdout, stderr, code := runLint(t, bin, dir, "-wirelock")
	if code != 0 {
		t.Fatalf("-wirelock: exit=%d\n%s%s", code, stdout, stderr)
	}
	data, err := os.ReadFile(filepath.Join(dir, "internal", "lint", "wire.lock"))
	if err != nil {
		t.Fatalf("wire.lock not written: %v", err)
	}
	// No watched packages in a throwaway module: header only.
	if strings.Contains(string(data), "struct ") || strings.Contains(string(data), "const ") {
		t.Errorf("unexpected entries in throwaway lock:\n%s", data)
	}
}
