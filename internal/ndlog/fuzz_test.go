package ndlog

import "testing"

// FuzzParseValue: the literal parser must never panic and successful
// parses of non-string values must render back parseably.
func FuzzParseValue(f *testing.F) {
	for _, seed := range []string{
		"42", "-7", "true", "false", `"hi"`, "1.2.3.4", "10.0.0.0/8",
		"#ff", "", "1.2.3", "300.0.0.1", "1.2.3.4/", "#zz", `"unterminated`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		v, err := ParseValue(s)
		if err != nil {
			return
		}
		if _, isStr := v.(Str); isStr {
			return // bare strings are not self-delimiting
		}
		if p, isPfx := v.(Prefix); isPfx && p.Addr != p.Addr.Mask(p.Bits) {
			t.Fatalf("parsed prefix not canonical: %v", p)
		}
		back, err := ParseValue(v.String())
		if err != nil {
			t.Fatalf("rendering %q of %#v does not re-parse: %v", v.String(), v, err)
		}
		if back != v {
			t.Fatalf("round trip changed value: %#v -> %#v", v, back)
		}
	})
}

// FuzzParse: the NDlog program parser must never panic, and accepted
// programs must render to re-parseable text.
func FuzzParse(f *testing.F) {
	f.Add("table t/1 base;\nrule r t2(X) :- t(X).")
	f.Add("table flowEntry/3 base mutable;\ntable packet/1 event base;\nrule fw packet(@N, D) :- packet(@S, D), flowEntry(@S, P, M, N), matches(D, M), argmax P.")
	f.Add("table kv/2 event base; table wc/2; rule w wc(K, N) :- kv(K, V), N := count().")
	f.Add("table a/2 base key(0); rule r a(X, Y) :- a(Y, X), X := Y + 1, inverse Y := X - 1.")
	f.Add("// comment\ntable x/0;")
	f.Add("rule broken")
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Parse(src)
		if err != nil {
			return
		}
		rendered := p.String()
		if _, err := Parse(rendered); err != nil {
			t.Fatalf("accepted program does not re-parse: %v\ninput: %q\nrendered: %q", err, src, rendered)
		}
		// An accepted program must analyze without panicking. (Errors are
		// still possible: Parse validates rule-by-rule, while whole-program
		// checks like stratification only run here.)
		for _, d := range AnalyzeProgram(p) {
			if d.String() == "" {
				t.Fatalf("empty diagnostic rendering for %q", src)
			}
		}
	})
}

// FuzzParseLoose: loose parsing plus analysis must never panic, whatever
// the input; every diagnostic must render, and errors recorded by the
// loose parser must not corrupt the recovered program so badly that
// analysis panics on it.
func FuzzParseLoose(f *testing.F) {
	f.Add("table t/1 base;\nrule r t2(X) :- t(X).")
	f.Add("rule broken h( :- .")
	f.Add("table a/1; table a/2; rule r a() :- a(X, Y), Z := nosuch(W).")
	f.Add("table ev/1 event; table agg/1; rule c agg(@N, C) :- ev(@N, X), C := count(). rule f ev(@N, C) :- agg(@N, C).")
	f.Add("\"")
	f.Add("#")
	f.Fuzz(func(t *testing.T, src string) {
		prog, diags := ParseLoose(src)
		diags = append(diags, AnalyzeProgram(prog)...)
		SortDiags(diags)
		for _, d := range diags {
			if d.String() == "" {
				t.Fatal("empty diagnostic rendering")
			}
		}
	})
}

// FuzzAnalyzeProgram drives loose-parser-recovered programs through the
// whole-program analysis and the demand reader: neither may panic, the
// demand may only name tables a rule derives, with bound columns and seed
// arguments inside their tables' arities, and an undeclared seed table is
// an error.
func FuzzAnalyzeProgram(f *testing.F) {
	f.Add("table t/1 base;\nrule r t2(X) :- t(X).", "t2")
	f.Add(sliceProgram, "out")
	f.Add("table a/1\ntable b/2;\nrule r b(@X, X, Y) :- b(@X, X, Y).", "b")
	f.Add("table t/1 base;\ntable s/1;\nrule r s(X) :- t(X), !s(X).", "s")
	f.Add("table ev/1 event base; table agg/1; rule c agg(@N, C) :- ev(@N, X), C := count().", "agg")
	f.Add("rule broken", "nosuch")
	f.Add("table t/2 event base; table s/1; rule r s(@N, Y, X) :- t(@N, X, Y).", "t")
	f.Fuzz(func(t *testing.T, src, seed string) {
		prog, _ := ParseLoose(src)
		_ = AnalyzeProgram(prog)
		derived := map[string]bool{}
		for _, r := range prog.Rules() {
			derived[r.Head.Table] = true
		}
		for _, sym := range append(prog.Tables(), seed) {
			dem, err := DemandOf(prog, sym)
			if sd := prog.Decl(sym); sd == nil {
				if err == nil {
					t.Fatalf("demand of undeclared table %q is not an error", sym)
				}
				continue
			} else if err != nil {
				t.Fatalf("demand of %q: %v", sym, err)
			}
			for _, dt := range dem {
				if !derived[dt.Table] {
					t.Fatalf("demand of %q lists %q, which no rule derives", sym, dt.Table)
				}
				for _, c := range dt.Bound {
					if c.Col >= prog.Decl(dt.Table).Arity {
						t.Fatalf("demand of %q binds column %d of %s/%d", sym, c.Col, dt.Table, prog.Decl(dt.Table).Arity)
					}
					for _, k := range c.From {
						if k >= prog.Decl(sym).Arity {
							t.Fatalf("demand of %q reads seed argument %d of %d", sym, k, prog.Decl(sym).Arity)
						}
					}
				}
			}
		}
	})
}
