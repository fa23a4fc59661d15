// Package escape is the compile-time half of the zero-alloc gate: it
// asks the compiler for its escape-analysis diagnostics
// (go build -gcflags=<module>/...=-m) and fails when any heap
// allocation lands inside a function annotated //pktbuf:hotpath. The
// AllocsPerRun benchmark gates catch a regression at bench time and
// only on the paths the benchmark drives; this gate catches it at
// build time on every path of every annotated function.
//
// Known escapes can be recorded in a baseline file (one
// "pkg.func: message" per line, # comments allowed); only escapes
// absent from the baseline fail the gate, so a deliberate, justified
// allocation does not wedge CI while still preventing silent growth.
// The baseline must also stay exact: a key that matches no observed
// site (its function was renamed or deleted, or the escape was fixed)
// fails the gate as stale, so the file cannot accumulate dead entries
// that would silently waive a future escape of the same name.
package escape

import (
	"bufio"
	"bytes"
	"fmt"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/load"
)

// A Site is one compiler-reported heap escape inside an annotated
// function.
type Site struct {
	// Func is the qualified function name ("Type.Method" or "Func")
	// prefixed by its import path.
	Func string
	// Message is the compiler diagnostic ("moved to heap: x",
	// "&x escapes to heap", ...).
	Message string
	// Pos is the diagnostic's file:line:col.
	Pos string
}

// Key is the baseline identity of the site: position-independent so
// unrelated edits to the file do not invalidate the baseline.
func (s Site) Key() string { return s.Func + ": " + s.Message }

// annotated is one //pktbuf:hotpath function's source range.
type annotated struct {
	pkg, name          string
	file               string
	startLine, endLine int
}

// Check builds the annotated packages with escape diagnostics enabled
// and returns the escape sites inside annotated functions that are
// not covered by the baseline file (missing baseline file = empty
// baseline), the baseline keys that match no observed site, and all
// observed sites for reporting.
func Check(pkgs []*load.Package, fset *token.FileSet, baselinePath string) (fresh []Site, stale []string, all []Site, err error) {
	var funcs []annotated
	targets := make(map[string]bool)
	for _, p := range pkgs {
		if !p.Target() {
			continue
		}
		for _, fd := range analysis.HotpathFuncs(p.Syntax) {
			_, qual := analysis.FuncName(fd)
			start := fset.Position(fd.Pos())
			end := fset.Position(fd.End())
			funcs = append(funcs, annotated{
				pkg:       p.ImportPath,
				name:      qual,
				file:      start.Filename,
				startLine: start.Line,
				endLine:   end.Line,
			})
			targets[p.ImportPath] = true
		}
	}
	if len(funcs) == 0 {
		return nil, nil, nil, fmt.Errorf("escape: no //pktbuf:hotpath annotations found")
	}

	var pkgArgs []string
	module := ""
	for path := range targets {
		pkgArgs = append(pkgArgs, path)
		if i := strings.Index(path, "/"); i >= 0 {
			module = path[:i]
		} else {
			module = path
		}
	}
	sort.Strings(pkgArgs)

	diags, err := buildDiagnostics(module, pkgArgs)
	if err != nil {
		return nil, nil, nil, err
	}

	all = matchSites(diags, funcs)
	baseline, err := readBaseline(baselinePath)
	if err != nil {
		return nil, nil, nil, err
	}
	fresh, stale = compare(baseline, all)
	return fresh, stale, all, nil
}

// compare splits the observed sites against the baseline: the sites
// whose key the baseline lacks, and the baseline keys (sorted) that no
// site matches.
func compare(baseline map[string]bool, all []Site) (fresh []Site, stale []string) {
	seen := make(map[string]bool, len(all))
	for _, s := range all {
		seen[s.Key()] = true
		if !baseline[s.Key()] {
			fresh = append(fresh, s)
		}
	}
	for k := range baseline {
		if !seen[k] {
			stale = append(stale, k)
		}
	}
	sort.Strings(stale)
	return fresh, stale
}

// WriteBaseline records every observed site to path.
func WriteBaseline(path string, all []Site) error {
	var b bytes.Buffer
	b.WriteString("# pktbufvet escape baseline: known heap escapes inside //pktbuf:hotpath\n")
	b.WriteString("# functions. Regenerate with: go run ./cmd/pktbufvet -escapes -write-baseline\n")
	keys := make([]string, 0, len(all))
	seen := make(map[string]bool)
	for _, s := range all {
		if !seen[s.Key()] {
			seen[s.Key()] = true
			keys = append(keys, s.Key())
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('\n')
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}

func readBaseline(path string) (map[string]bool, error) {
	out := make(map[string]bool)
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return out, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		out[line] = true
	}
	return out, sc.Err()
}

type diag struct {
	file    string
	line    int
	message string
}

var diagLine = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.*)$`)

// buildDiagnostics compiles the packages with -m and returns the
// heap-escape diagnostics. The build cache replays compiler output,
// so warm runs stay cheap without losing diagnostics.
func buildDiagnostics(module string, pkgs []string) ([]diag, error) {
	args := append([]string{"build", "-gcflags=" + module + "/...=-m"}, pkgs...)
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("escape: go build: %v\n%s", err, stderr.Bytes())
	}
	cwd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	var out []diag
	sc := bufio.NewScanner(&stderr)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		m := diagLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		msg := m[4]
		if !strings.Contains(msg, "moved to heap") &&
			(!strings.Contains(msg, "escapes to heap") || strings.Contains(msg, "does not escape")) {
			continue
		}
		file := m[1]
		if !filepath.IsAbs(file) {
			file = filepath.Join(cwd, file)
		}
		line, _ := strconv.Atoi(m[2])
		out = append(out, diag{file: file, line: line, message: msg})
	}
	return out, sc.Err()
}

// matchSites keeps the diagnostics whose position falls inside an
// annotated function's source range.
func matchSites(diags []diag, funcs []annotated) []Site {
	var out []Site
	for _, d := range diags {
		for _, fn := range funcs {
			if d.file == fn.file && d.line >= fn.startLine && d.line <= fn.endLine {
				out = append(out, Site{
					Func:    fn.pkg + "." + fn.name,
					Message: d.message,
					Pos:     fmt.Sprintf("%s:%d", d.file, d.line),
				})
				break
			}
		}
	}
	return out
}
