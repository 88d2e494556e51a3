package submit

import (
	"strings"
	"testing"
	"time"

	"repro/internal/psl"
)

// mustList builds a list from rule strings; "!"/"*." markers choose the
// kind, an optional "icann:"/"private:" prefix chooses the section.
func mustList(t *testing.T, rules ...string) *psl.List {
	t.Helper()
	var rs []psl.Rule
	for _, s := range rules {
		sec := psl.SectionPrivate
		if rest, ok := strings.CutPrefix(s, "icann:"); ok {
			sec, s = psl.SectionICANN, rest
		} else if rest, ok := strings.CutPrefix(s, "private:"); ok {
			sec, s = psl.SectionPrivate, rest
		}
		r, err := psl.ParseRule(s, sec)
		if err != nil {
			t.Fatalf("parse %q: %v", s, err)
		}
		rs = append(rs, r)
	}
	return psl.NewList(rs)
}

// TestDifferentialMatcherTable drives the tricky rule shapes the
// semantic validator relies on through the packed matcher and the
// linear reference with identical assertions: if the packed matcher
// disagrees with the expected answer OR with the reference, every
// replica compiling it would serve answers the list does not say.
func TestDifferentialMatcherTable(t *testing.T) {
	list := mustList(t,
		"icann:com",
		"icann:co.uk",
		"icann:*.ck",
		"icann:!www.ck",
		"private:*.hosted.platform.test",
		"private:!status.hosted.platform.test",
	)
	ms := map[string]psl.Matcher{"linear": psl.NewLinearMatcher(list), "packed": list.Matcher()}

	cases := []struct {
		name       string
		probe      string
		wantLabels int
		wantRule   string // "" means implicit
	}{
		{"plain TLD rule", "example.com", 1, "com"},
		{"two-label rule", "example.co.uk", 2, "co.uk"},
		{"wildcard at TLD position", "anything.ck", 2, "*.ck"},
		{"wildcard at TLD, deeper name", "a.b.anything.ck", 2, "*.ck"},
		{"exception cancels TLD wildcard", "www.ck", 1, "!www.ck"},
		{"name below the exception", "sub.www.ck", 1, "!www.ck"},
		{"wildcard TLD itself is implicit", "ck", 1, ""},
		{"unknown TLD implicit star", "example.nosuchtld", 1, ""},
		{"private wildcard", "tenant.hosted.platform.test", 4, "*.hosted.platform.test"},
		{"private exception", "status.hosted.platform.test", 3, "!status.hosted.platform.test"},
	}
	names := []string{"linear", "packed"}
	for _, tc := range cases {
		for _, name := range names {
			got := ms[name].Match(tc.probe)
			if got.SuffixLabels != tc.wantLabels {
				t.Errorf("%s/%s: Match(%q).SuffixLabels = %d, want %d",
					tc.name, name, tc.probe, got.SuffixLabels, tc.wantLabels)
			}
			if tc.wantRule == "" {
				if !got.Implicit {
					t.Errorf("%s/%s: Match(%q) = %+v, want implicit", tc.name, name, tc.probe, got)
				}
			} else if got.Implicit || got.Rule.String() != tc.wantRule {
				t.Errorf("%s/%s: Match(%q) prevails %q (implicit=%v), want %q",
					tc.name, name, tc.probe, got.Rule.String(), got.Implicit, tc.wantRule)
			}
		}
		// Cross-implementation agreement on the full result, not just
		// the fields the table names.
		ref := resultKey(ms[names[0]].Match(tc.probe))
		for _, name := range names[1:] {
			if got := resultKey(ms[name].Match(tc.probe)); got != ref {
				t.Errorf("%s: divergence on %q: %s=%s, %s=%s",
					tc.name, tc.probe, names[0], ref, name, got)
			}
		}
	}
}

// TestSemanticValidatorTable runs the ISSUE's adversarial submissions
// through the full pipeline and checks each is refused at the expected
// stage with a finding that names the problem. Every case plants its
// TXT record, so authorization never masks the earlier stages.
func TestSemanticValidatorTable(t *testing.T) {
	cases := []struct {
		name      string
		seed      []string // published before the submission
		changes   []Change
		wantStage string
		wantFind  string
	}{
		{
			// The file linter already refuses an orphan exception, so
			// this rejection lands at the lint stage; the semantic stage
			// backstops the same invariant when the covering wildcard is
			// removed by the submission itself (see
			// TestSubmitSemanticRejections).
			name:      "exception with no covering wildcard",
			changes:   []Change{{Op: "add", Rule: "!lonely.orphan.test", Section: "private"}},
			wantStage: StageLint,
			wantFind:  "no covering wildcard",
		},
		{
			name:      "bare star at TLD position",
			changes:   []Change{{Op: "add", Rule: "*", Section: "icann"}},
			wantStage: StageLint,
			wantFind:  "no suffix labels",
		},
		{
			name:      "interior wildcard",
			changes:   []Change{{Op: "add", Rule: "a.*.b.test", Section: "private"}},
			wantStage: StageLint,
			wantFind:  "interior wildcard",
		},
		{
			name: "rule shadowed by a prevailing exception",
			seed: []string{"*.shadow.test", "!www.shadow.test"},
			changes: []Change{
				{Op: "add", Rule: "www.shadow.test", Section: "private"},
			},
			wantStage: StageSemantic,
			wantFind:  "unreachable",
		},
		{
			name: "rule shadowed by a prevailing wildcard",
			seed: []string{"*.shadow.test"},
			changes: []Change{
				{Op: "add", Rule: "deep.shadow.test", Section: "private"},
			},
			wantStage: StageSemantic,
			wantFind:  "unreachable",
		},
		{
			name: "removing wildcard orphans exception",
			seed: []string{"*.shadow.test", "!www.shadow.test"},
			changes: []Change{
				{Op: "remove", Rule: "*.shadow.test", Section: "private"},
			},
			wantStage: StageSemantic,
			wantFind:  "orphans exception",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rig := newRig(t, Config{})
			var seedRules []psl.Rule
			for _, s := range tc.seed {
				r, err := psl.ParseRule(s, psl.SectionPrivate)
				if err != nil {
					t.Fatal(err)
				}
				seedRules = append(seedRules, r)
			}
			if len(seedRules) > 0 {
				if _, err := rig.o.Publish(time.Now(), seedRules, nil); err != nil {
					t.Fatal(err)
				}
			}
			req := Request{Changes: tc.changes}
			// Plant TXT records for parseable changes only — unparseable
			// ones are the lint stage's to refuse.
			id := ComputeID(req)
			for _, c := range tc.changes {
				if rule, _, err := parseChange(c); err == nil {
					rig.zone.AddTXT("_psl."+AuthOwner(rule), id)
				}
			}
			s, err := rig.p.Submit(req)
			if err != nil {
				t.Fatal(err)
			}
			if s.State != StateRejected || s.RejectedStage != tc.wantStage {
				t.Fatalf("state %s / stage %q, want rejected/%s; verdicts %+v",
					s.State, s.RejectedStage, tc.wantStage, s.Verdicts)
			}
			last := s.Verdicts[len(s.Verdicts)-1]
			joined := strings.Join(last.Findings, "\n")
			if !strings.Contains(joined, tc.wantFind) {
				t.Fatalf("findings %v missing %q", last.Findings, tc.wantFind)
			}
		})
	}
}
