package main

import (
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/ndlog"
	"repro/internal/ndlog/analysis"
)

// runSlice implements `diffprov slice <file.ndlog|builtin:name> <table>`:
// it prints the demand a seed of the table induces (ndlog.DemandOf), the
// part of each derived table a counterfactual trial seeded there derives.
func runSlice(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: diffprov slice <file.ndlog|%s> <table>", builtinNames())
	}
	return printDemand(os.Stdout, args[0], args[1])
}

// printDemand writes the demand a seed of the table in src induces: one
// line per derived table, in declaration order.
func printDemand(w io.Writer, src, seed string) error {
	prog, err := loadProgram(src)
	if err != nil {
		return err
	}
	dem, err := ndlog.DemandOf(prog, seed)
	if err != nil {
		return fmt.Errorf("%s: %v", src, err)
	}
	width := 0
	for _, dt := range dem {
		width = max(width, len(dt.Table))
	}
	fmt.Fprintf(w, "demand a seed of %s induces in %s (base tables are always applied):\n", seed, src)
	for _, dt := range dem {
		what := "not derived"
		switch {
		case dt.Derived && len(dt.Bound) == 0:
			what = "whole"
		case dt.Derived:
			cols := make([]string, len(dt.Bound))
			for i, c := range dt.Bound {
				from := make([]string, len(c.From))
				for j, k := range c.From {
					from[j] = fmt.Sprint(k)
				}
				cols[i] = fmt.Sprintf("column %d ← seed argument %s", c.Col, strings.Join(from, " or "))
			}
			what = "restricted: " + strings.Join(cols, ", ")
		}
		fmt.Fprintf(w, "  %-*s  %s\n", width, dt.Table, what)
	}
	return nil
}

// loadProgram resolves a slice source argument: a builtin:name from the
// vet table, or a .ndlog file parsed with error recovery (errors abort;
// the demand of a half-parsed program would mislead).
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
		return nil, fmt.Errorf("%s: %d error(s); fix them before reading the demand", src, res.Errors())
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
