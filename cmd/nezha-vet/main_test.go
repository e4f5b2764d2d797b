package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// TestAnalyzerNamesMatchProblemMatcher holds every registered name to the
// `[name]` group of CI's problem matcher: a name the group cannot match
// (say "lock-order") would silently drop that analyzer's inline PR
// annotations. Names must also be unique, or -run could not tell them
// apart.
func TestAnalyzerNamesMatchProblemMatcher(t *testing.T) {
	raw, err := os.ReadFile("../../.github/nezha-vet-problem-matcher.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		ProblemMatcher []struct {
			Pattern []struct {
				Regexp string
				Code   int
			}
		}
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.ProblemMatcher) != 1 || len(m.ProblemMatcher[0].Pattern) != 1 {
		t.Fatalf("want one matcher with one pattern, got %+v", m)
	}
	pat := m.ProblemMatcher[0].Pattern[0]
	re := regexp.MustCompile(pat.Regexp)
	seen := map[string]bool{}
	for _, a := range analyzers {
		if seen[a.Name] {
			t.Errorf("analyzer name %q registered twice", a.Name)
		}
		seen[a.Name] = true
		line := "x.go:1:2: [" + a.Name + "] message"
		g := re.FindStringSubmatch(line)
		if g == nil || pat.Code >= len(g) || g[pat.Code] != a.Name {
			t.Errorf("analyzer name %q is not captured by the problem matcher's code group in %q", a.Name, pat.Regexp)
		}
	}
}
