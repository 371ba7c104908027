// Command reprolint runs the repository's determinism and concurrency
// lint suite (internal/lint) over one or more package trees and prints
// findings as "file:line: rule: message", one per line.
//
// Usage:
//
//	reprolint [-rules rule1,rule2] [-list] [-json] [-baseline file]
//	          [-write-baseline file] [pattern ...]
//
// A pattern is a directory, or a directory followed by /... to include
// everything below it; the default is ./... . The exit status is 0 when
// the tree is clean, 1 when there are findings, and 2 on usage or parse
// errors. A tree that does not type-check reports each type error as a
// finding with rule "typecheck", and no other rule runs on it.
//
// Findings are suppressed with a justified directive attached to the
// offending statement (on its line, or the line directly above):
//
//	//lint:ignore <rule> <reason>
//
// Determinism-taint findings may instead be discharged with a reasoned
// determinism annotation:
//
//	//lint:deterministic <why>
//
// -baseline filters findings through an accepted-findings file (keys
// rule|file|message; see internal/lint.WriteBaseline), reporting only
// fresh findings and noting stale entries; -write-baseline records the
// current findings to such a file and exits 0. -json emits the reported
// findings as a JSON array for tooling.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/lint"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reprolint:", err)
	}
	os.Exit(code)
}

func run(args []string, out io.Writer) (int, error) {
	fs := flag.NewFlagSet("reprolint", flag.ContinueOnError)
	var (
		rules         = fs.String("rules", "", "comma-separated subset of rules to run (default: all)")
		list          = fs.Bool("list", false, "list available rules and exit")
		jsonOut       = fs.Bool("json", false, "emit findings as a JSON array instead of text")
		baselinePath  = fs.String("baseline", "", "filter findings through this accepted-findings file")
		writeBaseline = fs.String("write-baseline", "", "record current findings to this baseline file and exit 0")
	)
	if err := fs.Parse(args); err != nil {
		return 2, nil
	}
	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(out, "%-18s %s\n", a.Name, a.Doc)
		}
		return 0, nil
	}

	analyzers, err := selectAnalyzers(*rules)
	if err != nil {
		return 2, err
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	var findings []lint.Finding
	for _, pat := range patterns {
		root, recursive := splitPattern(pat)
		prog, err := lint.Load(root)
		if err != nil {
			return 2, err
		}
		for _, f := range lint.Run(prog, analyzers) {
			if !recursive && !inDirectory(f.Pos.Filename, root) {
				continue
			}
			findings = append(findings, f)
		}
	}

	if *writeBaseline != "" {
		file, err := os.Create(*writeBaseline)
		if err != nil {
			return 2, err
		}
		werr := lint.WriteBaseline(file, findings)
		if cerr := file.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return 2, werr
		}
		fmt.Fprintf(out, "reprolint: wrote %d finding(s) to %s\n", len(findings), *writeBaseline)
		return 0, nil
	}

	baselined := 0
	if *baselinePath != "" {
		baseline, err := lint.LoadBaseline(*baselinePath)
		if err != nil {
			return 2, err
		}
		fresh, stale := lint.FilterBaseline(findings, baseline)
		baselined = len(findings) - len(fresh)
		findings = fresh
		for _, key := range stale {
			fmt.Fprintf(os.Stderr, "reprolint: stale baseline entry (fix landed — delete it): %s\n", key)
		}
	}

	if *jsonOut {
		if err := writeJSON(out, findings); err != nil {
			return 2, err
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(out, f)
		}
	}
	if len(findings) > 0 {
		if !*jsonOut {
			if baselined > 0 {
				fmt.Fprintf(out, "reprolint: %d finding(s) (%d more baselined)\n", len(findings), baselined)
			} else {
				fmt.Fprintf(out, "reprolint: %d finding(s)\n", len(findings))
			}
		}
		return 1, nil
	}
	return 0, nil
}

// jsonFinding is the stable machine-readable finding shape.
type jsonFinding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Column  int    `json:"column"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
}

// writeJSON emits findings as one JSON array ([] when clean).
func writeJSON(out io.Writer, findings []lint.Finding) error {
	arr := make([]jsonFinding, 0, len(findings))
	for _, f := range findings {
		arr = append(arr, jsonFinding{
			File:    f.Pos.Filename,
			Line:    f.Pos.Line,
			Column:  f.Pos.Column,
			Rule:    f.Rule,
			Message: f.Message,
		})
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(arr)
}

// inDirectory reports whether file sits directly in root (non-recursive
// pattern semantics).
func inDirectory(file, root string) bool {
	dir := strings.TrimPrefix(file, "./")
	if i := strings.LastIndex(dir, "/"); i >= 0 {
		dir = dir[:i]
	} else {
		dir = "."
	}
	return dir == strings.TrimPrefix(strings.TrimSuffix(root, "/"), "./")
}

// selectAnalyzers resolves the -rules flag to the analyzer subset.
func selectAnalyzers(rules string) ([]*lint.Analyzer, error) {
	if rules == "" {
		return lint.Analyzers(), nil
	}
	var selected []*lint.Analyzer
	for _, name := range strings.Split(rules, ",") {
		name = strings.TrimSpace(name)
		a := lint.ByName(name)
		if a == nil {
			return nil, fmt.Errorf("unknown rule %q (try -list)", name)
		}
		selected = append(selected, a)
	}
	return selected, nil
}

// splitPattern separates a package pattern into its root directory and
// whether it recurses.
func splitPattern(pat string) (root string, recursive bool) {
	if pat == "..." {
		return ".", true
	}
	if strings.HasSuffix(pat, "/...") {
		return strings.TrimSuffix(pat, "/..."), true
	}
	return pat, false
}
