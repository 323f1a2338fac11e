package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/ndlog"
	"repro/internal/ndlog/analysis"
)

// runSlice implements `diffprov slice [-rules] <file.ndlog|builtin:name>
// <table>`: it prints the static backward slice of a symptom table — the
// tables and rules that can influence it — and the tables the slice
// prunes. This is the same slice core.Diagnose uses to skip fallback
// candidates (see internal/core/fallback.go).
func runSlice(args []string) error {
	fs := flag.NewFlagSet("slice", flag.ContinueOnError)
	showRules := fs.Bool("rules", false, "also print the in-slice rules")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: diffprov slice [-rules] <file.ndlog|%s> <table>", builtinNames())
	}
	src, symptom := fs.Arg(0), fs.Arg(1)

	prog, err := loadProgram(src)
	if err != nil {
		return err
	}
	if prog.Decl(symptom) == nil {
		return fmt.Errorf("table %q is not declared in %s", symptom, src)
	}
	s := ndlog.Slice(prog, symptom)
	fmt.Printf("slice of %s in %s: %d of %d tables\n", symptom, src, len(s.Order), len(prog.Tables()))
	for _, tb := range s.Order {
		fmt.Printf("  %s\n", tb)
	}
	var pruned []string
	for _, tb := range prog.Tables() {
		if !s.Contains(tb) {
			pruned = append(pruned, tb)
		}
	}
	if len(pruned) > 0 {
		fmt.Printf("pruned (no rule path to %s): %s\n", symptom, strings.Join(pruned, ", "))
	}
	if *showRules {
		fmt.Printf("in-slice rules: %d of %d\n", len(s.Rules), len(prog.Rules()))
		for _, r := range s.Rules {
			fmt.Printf("  %s\n", r)
		}
	}
	return nil
}

// loadProgram resolves a slice/vet source argument: a builtin:name from
// the vet table, or a .ndlog file parsed with error recovery (errors
// abort; the slice of a half-parsed program would mislead).
func loadProgram(src string) (*ndlog.Program, error) {
	for _, b := range builtinPrograms {
		if src == b.name {
			return b.prog(), nil
		}
	}
	res, err := analysis.AnalyzeFile(src)
	if err != nil {
		return nil, err
	}
	if res.Errors() > 0 {
		res.Format(os.Stderr)
		return nil, fmt.Errorf("%s: %d error(s); fix them before slicing", src, res.Errors())
	}
	return res.Program, nil
}

func builtinNames() string {
	names := make([]string, len(builtinPrograms))
	for i, b := range builtinPrograms {
		names[i] = b.name
	}
	return strings.Join(names, "|")
}
