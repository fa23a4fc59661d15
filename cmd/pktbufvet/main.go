// Command pktbufvet runs the repo's invariant analyzers
// (repro/internal/analysis): hotpath-noalloc, singlewriter, errwrap
// and publicapi, plus the compile-time escape gate for
// //pktbuf:hotpath functions.
//
// Standalone (the developer entrypoint — run it before pushing):
//
//	go run ./cmd/pktbufvet ./...
//	go run ./cmd/pktbufvet -escapes ./...
//
// As a vet tool (same analyzers, driven by the go command's
// per-package vet protocol):
//
//	go build -o /tmp/pktbufvet ./cmd/pktbufvet
//	go vet -vettool=/tmp/pktbufvet ./...
//
// The escape gate (-escapes) compiles the annotated packages with
// -gcflags='repro/...=-m', collects the compiler's escape-analysis
// diagnostics, and fails on any heap escape inside a
// //pktbuf:hotpath function that is not recorded in the baseline
// file (default testdata/escapes_baseline.txt; missing file = empty
// baseline), and on any stale baseline entry that matches no observed
// escape. -write-baseline regenerates the file from the observed
// escapes.
//
// Exit status: 0 clean, 1 findings, 2 operational error.
package main

import (
	"flag"
	"fmt"
	"go/token"
	"os"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/escape"
	"repro/internal/analysis/load"
)

func main() {
	// The go vet vettool protocol calls with -V=full, -flags, or a
	// single *.cfg argument; everything else is the standalone CLI.
	if len(os.Args) == 2 {
		switch {
		case os.Args[1] == "-V=full":
			printVersion()
			return
		case os.Args[1] == "-flags":
			fmt.Println("[]")
			return
		case strings.HasSuffix(os.Args[1], ".cfg"):
			os.Exit(unitCheck(os.Args[1]))
		}
	}

	escapes := flag.Bool("escapes", false,
		"run the escape-analysis gate over //pktbuf:hotpath functions")
	baseline := flag.String("escape-baseline", "testdata/escapes_baseline.txt",
		"baseline file of known hot-path escapes")
	writeBaseline := flag.Bool("write-baseline", false,
		"with -escapes: record the observed escapes as the new baseline")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: pktbufvet [-escapes [-escape-baseline file] [-write-baseline]] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, fset, err := load.Packages(patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pktbufvet:", err)
		os.Exit(2)
	}

	if *escapes {
		os.Exit(runEscapes(pkgs, fset, *baseline, *writeBaseline))
	}

	findings := 0
	for _, p := range pkgs {
		if !p.Target() {
			continue
		}
		findings += badWaivers(p, fset)
		pass := &analysis.Pass{
			Fset:      fset,
			Files:     p.Syntax,
			Pkg:       p.Types,
			TypesInfo: p.Info,
		}
		for _, a := range analysis.All() {
			pass.Report = func(d analysis.Diagnostic) {
				findings++
				fmt.Printf("%s: %s\n", fset.Position(d.Pos), d.Message)
			}
			if err := analysis.Run(a, pass); err != nil {
				fmt.Fprintf(os.Stderr, "pktbufvet: %s: %s: %v\n", a.Name, p.ImportPath, err)
				os.Exit(2)
			}
		}
	}
	if findings > 0 {
		fmt.Fprintf(os.Stderr, "pktbufvet: %d finding(s)\n", findings)
		os.Exit(1)
	}
}

// badWaivers reports //pktbuf:allow comments that name no analyzer or
// carry no justification: an unexplained waiver is itself a finding.
func badWaivers(p *load.Package, fset *token.FileSet) int {
	n := 0
	for _, f := range p.Syntax {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, "//pktbuf:allow") {
					continue
				}
				if _, ok := analysis.ParseWaiver(c.Text); !ok {
					n++
					fmt.Printf("%s: malformed waiver %q: want //pktbuf:allow <analyzer> <reason>\n",
						fset.Position(c.Pos()), c.Text)
				}
			}
		}
	}
	return n
}

// runEscapes drives the escape gate.
func runEscapes(pkgs []*load.Package, fset *token.FileSet, baseline string, write bool) int {
	fresh, stale, all, err := escape.Check(pkgs, fset, baseline)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pktbufvet:", err)
		return 2
	}
	if write {
		if err := escape.WriteBaseline(baseline, all); err != nil {
			fmt.Fprintln(os.Stderr, "pktbufvet:", err)
			return 2
		}
		fmt.Printf("pktbufvet: escape baseline written to %s (%d sites)\n", baseline, len(all))
		return 0
	}
	for _, s := range fresh {
		fmt.Printf("%s: escape in hot path %s: %s\n", s.Pos, s.Func, s.Message)
	}
	for _, k := range stale {
		fmt.Printf("%s: stale baseline entry (no such escape): %s\n", baseline, k)
	}
	if len(fresh) > 0 || len(stale) > 0 {
		fmt.Fprintf(os.Stderr,
			"pktbufvet: %d new heap escape(s) in //pktbuf:hotpath functions, %d stale baseline key(s); "+
				"regenerate with -write-baseline after an intentional change\n", len(fresh), len(stale))
		return 1
	}
	fmt.Printf("pktbufvet: escape gate clean (%d annotated function(s), %d baselined site(s))\n",
		countAnnotated(pkgs), len(all))
	return 0
}

func countAnnotated(pkgs []*load.Package) int {
	n := 0
	for _, p := range pkgs {
		if p.Target() {
			n += len(analysis.HotpathFuncs(p.Syntax))
		}
	}
	return n
}
