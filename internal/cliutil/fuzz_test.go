package cliutil

import (
	"fmt"
	"strings"
	"testing"

	horus "repro"
)

// checkNamesInput fails unless err quotes the rejected input the way the
// parsers format it, so a user can see which value was wrong.
func checkNamesInput(t *testing.T, parser, in string, err error) {
	t.Helper()
	if q := fmt.Sprintf("%q", in); !strings.Contains(err.Error(), q) {
		t.Errorf("%s(%q) error %q does not name the input", parser, in, err)
	}
}

// FuzzParseScheme drives the CLI's name parsers (schemes, persistence
// domains, scales and battery technologies) with arbitrary input. None may
// panic, every rejection must name the rejected value, ParseSchemes
// must agree element by element with ParseScheme, and each design's
// lower-cased presentation name must parse back to that design.
func FuzzParseScheme(f *testing.F) {
	for _, seed := range []string{
		"slm", "Base-LU", "nonsecure", "horus-dlm,lu", "slm, bogus", "", ",",
		"adr+wpq", "eADR", "paper", "TEST", "supercap", "Li-Thin", "\xff", "\"quoted\"",
	} {
		f.Add(seed)
	}
	for _, s := range horus.AllSchemes() {
		f.Add(s.String())
	}
	f.Fuzz(func(t *testing.T, in string) {
		for _, s := range horus.AllSchemes() {
			if got, err := ParseScheme(strings.ToLower(s.String())); err != nil || got != s {
				t.Fatalf("ParseScheme(%q) = %v, %v; want %v", strings.ToLower(s.String()), got, err, s)
			}
		}

		if _, err := ParseScheme(in); err != nil {
			checkNamesInput(t, "ParseScheme", in, err)
		}

		got, err := ParseSchemes(in)
		if in == "" {
			if got != nil || err != nil {
				t.Fatalf("ParseSchemes(\"\") = %v, %v; want nil, nil", got, err)
			}
		} else {
			var want []horus.Scheme
			var firstErr error
			for _, name := range strings.Split(in, ",") {
				s, err := ParseScheme(strings.TrimSpace(name))
				if err != nil {
					firstErr = err
					break
				}
				want = append(want, s)
			}
			switch {
			case firstErr != nil:
				if err == nil || err.Error() != firstErr.Error() {
					t.Fatalf("ParseSchemes(%q) error = %v, want the first bad element's %v", in, err, firstErr)
				}
			case err != nil:
				t.Fatalf("ParseSchemes(%q) = %v, but every element parses", in, err)
			case fmt.Sprint(got) != fmt.Sprint(want):
				t.Fatalf("ParseSchemes(%q) = %v, want %v", in, got, want)
			}
		}

		if _, err := ParseDomain(in); err != nil {
			checkNamesInput(t, "ParseDomain", in, err)
		}
		if _, err := ParseScale(in); err != nil {
			checkNamesInput(t, "ParseScale", in, err)
		}
		bf := BatteryFlags{Cm3: 1, Tech: in}
		if _, err := bf.BudgetJoules(); err != nil {
			checkNamesInput(t, "BudgetJoules", in, err)
		}
	})
}
