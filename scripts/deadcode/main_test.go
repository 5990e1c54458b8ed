package main

import (
	"slices"
	"strings"
	"testing"
)

// TestCheckFixture builds the fixture module, whose binary holds each symbol
// shape a naive diff misreads: a method of a generic type, a value-receiver
// method mounted as a method value, and a function called only from a
// closure. Exactly the one unreachable function and the one stale entry
// must be reported.
func TestCheckFixture(t *testing.T) {
	bad, err := check("testdata/fixture", "allow.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"allow.txt:3: fixture/lib.Reached: gone or reachable now; remove the entry",
		"lib/lib.go:4: fixture/lib.Unreached is linked into no production binary",
	}
	if !slices.Equal(bad, want) {
		t.Errorf("check reported\n%s\nwant\n%s", strings.Join(bad, "\n"), strings.Join(want, "\n"))
	}
}

func TestNormalize(t *testing.T) {
	for sym, want := range map[string]string{
		"p.(*arena[go.shape.struct { a [2]int }]).Alloc": "p.arena.Alloc",
		"p.handler[go.shape.*uint8].submit":              "p.handler.submit",
		"p.(*Server).events-fm":                          "p.Server.events",
		"p.F.func1.2":                                    "p.F",
		"p.(*S).M.gowrap1":                               "p.S.M",
		"p.init.0":                                       "p.init",
	} {
		if got := normalize(sym); got != want {
			t.Errorf("normalize(%q) = %q, want %q", sym, got, want)
		}
	}
}
