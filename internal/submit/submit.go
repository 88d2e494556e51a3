// Package submit implements the list-maintenance control plane: the
// PSL's write path as a production service. A submission (add/remove
// rules in a section) flows through staged machine-checkable verdicts —
// lint, semantic validation, DNS authorization, propagation-risk
// scoring — and, if accepted, publishes through dist.Origin so the
// whole replication and observability plane exercises end-to-end from
// a write.
//
// The paper's harms all originate upstream of lookup: rules enter the
// real PSL through an under-policed GitHub submission process and then
// propagate with unbounded staleness. This package models the policed
// variant: every gate is explicit, machine-readable, and scored against
// the simulated web population, so "how much deployed behavior does
// this change flip" is a number the maintainer sees before merging.
package submit

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/dist"
	"repro/internal/dnssim"
	"repro/internal/domain"
	"repro/internal/faultfs"
	"repro/internal/httparchive"
	"repro/internal/obs"
	"repro/internal/psl"
)

// State is a submission's position in the lifecycle.
type State string

const (
	// StatePending marks a stored submission no check has run on yet.
	StatePending State = "pending"
	// StateChecking marks a submission mid-pipeline.
	StateChecking State = "checking"
	// StateRejected marks a submission that failed a stage; the failing
	// stage is recorded in RejectedStage and the last verdict.
	StateRejected State = "rejected"
	// StateAccepted marks a submission that passed every check and is
	// about to publish (or failed only the publish step itself).
	StateAccepted State = "accepted"
	// StatePublished marks a submission whose delta is live at the
	// origin.
	StatePublished State = "published"
)

// Stage names, in pipeline order. Verdicts carry these so a rejection
// is machine-attributable.
const (
	StageLint          = "lint"
	StageSemantic      = "semantic"
	StageAuthorization = "authorization"
	StageRisk          = "risk"
	StagePublish       = "publish"
)

// Stages lists the pipeline stages in execution order.
var Stages = []string{StageLint, StageSemantic, StageAuthorization, StageRisk, StagePublish}

// Change is one rule addition or removal.
type Change struct {
	// Op is "add" or "remove".
	Op string `json:"op"`
	// Rule is the rule in list syntax ("example.com", "*.ck", "!www.ck").
	Rule string `json:"rule"`
	// Section is "icann" or "private".
	Section string `json:"section"`
}

// Request is the submitter-provided payload.
type Request struct {
	Changes []Change `json:"changes"`
	// Contact identifies the submitter (free-form; the real process
	// uses the GitHub PR author).
	Contact string `json:"contact,omitempty"`
	// Reason is the submitter's rationale.
	Reason string `json:"reason,omitempty"`
}

// Verdict is one stage's machine-readable outcome.
type Verdict struct {
	Stage    string    `json:"stage"`
	Passed   bool      `json:"passed"`
	Detail   string    `json:"detail,omitempty"`
	Findings []string  `json:"findings,omitempty"`
	At       time.Time `json:"at"`
}

// RiskReport sizes a change against the simulated web population: which
// registrable-domain answers and cached-cookie scopes flip if this
// delta deploys.
type RiskReport struct {
	// Population is the number of hostnames examined.
	Population int `json:"population"`
	// SiteFlips counts hosts whose registrable domain changes.
	SiteFlips int `json:"site_flips"`
	// ScopeWidened counts flips where the new site is broader (fewer
	// labels) — cookies become settable across a wider scope, the
	// paper's supercookie direction.
	ScopeWidened int `json:"scope_widened"`
	// ScopeNarrowed counts flips where the new site is narrower —
	// previously shared state fractures, the breakage direction.
	ScopeNarrowed int `json:"scope_narrowed"`
	// FlipFraction is SiteFlips / Population.
	FlipFraction float64 `json:"flip_fraction"`
	// MaxFlipFraction is the configured acceptance ceiling.
	MaxFlipFraction float64 `json:"max_flip_fraction"`
	// SampleFlips holds up to a handful of "host: old-site -> new-site"
	// examples for the human reviewer.
	SampleFlips []string `json:"sample_flips,omitempty"`
}

// Submission is the full record exposed at /v1/submission/{id}.
type Submission struct {
	ID            string      `json:"id"`
	State         State       `json:"state"`
	Request       Request     `json:"request"`
	Verdicts      []Verdict   `json:"verdicts,omitempty"`
	RejectedStage string      `json:"rejected_stage,omitempty"`
	Risk          *RiskReport `json:"risk,omitempty"`
	PublishedSeq  int         `json:"published_seq,omitempty"`
	Fingerprint   string      `json:"fingerprint,omitempty"`
	CreatedAt     time.Time   `json:"created_at"`
	UpdatedAt     time.Time   `json:"updated_at"`
}

// clone deep-copies the record so HTTP handlers never alias pipeline
// state.
func (s *Submission) clone() *Submission {
	cp := *s
	cp.Verdicts = append([]Verdict(nil), s.Verdicts...)
	cp.Request.Changes = append([]Change(nil), s.Request.Changes...)
	if s.Risk != nil {
		r := *s.Risk
		r.SampleFlips = append([]string(nil), s.Risk.SampleFlips...)
		cp.Risk = &r
	}
	return &cp
}

// ComputeID derives the content-addressed submission ID: the SHA-256 of
// the canonical change serialization. Submitters compute the same ID
// offline (psltool id) and plant it in their _psl TXT record BEFORE
// submitting, which is what makes the authorization check a pure read.
func ComputeID(req Request) string {
	h := sha256.New()
	for _, c := range req.Changes {
		fmt.Fprintf(h, "%s|%s|%s\n", strings.ToLower(strings.TrimSpace(c.Op)),
			strings.TrimSpace(c.Rule), strings.ToLower(strings.TrimSpace(c.Section)))
	}
	return "sub-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// Config parameterises a Pipeline.
type Config struct {
	// StateDir, when non-empty, durably persists every submission as
	// one JSON file via the dist atomic-write discipline. Submissions
	// found mid-check at load time re-enqueue as pending.
	StateDir string
	// FS, when set, is the filesystem behind StateDir — the
	// crash-consistency harness hands in a faultfs.MemFS here. Nil
	// means the real OS. Either way the store runs behind the
	// "submit.persist.*" failpoint sites.
	FS faultfs.FS
	// Resolver answers _psl TXT queries. Required.
	Resolver dnssim.Resolver
	// Population, when set, sizes the risk stage against the simulated
	// web. New normalises its hosts once; they must not change after.
	// When nil the stage probes synthetic names under the changed
	// suffixes only.
	Population *httparchive.Snapshot
	// MaxFlipFraction is the largest fraction of the population whose
	// registrable domain may flip before the risk stage rejects.
	// Default 0.05.
	MaxFlipFraction float64
	// Manual disables automatic processing on Submit: submissions stay
	// pending until Process is called. Tests and operators use it to
	// observe the pending state.
	Manual bool
	// OnPublish, when set, is invoked after a successful publish with
	// the new manifest and the materialised list (pslserver uses it to
	// swap the lookup service and fetch tier to the new version).
	OnPublish func(m dist.Manifest, l *psl.List)
}

// maxSampleFlips bounds the examples in a RiskReport.
const maxSampleFlips = 10

func (c Config) withDefaults() Config {
	if c.MaxFlipFraction <= 0 {
		c.MaxFlipFraction = 0.05
	}
	return c
}

// Pipeline runs submissions through the staged checks and publishes
// accepted ones to a dist.Origin.
type Pipeline struct {
	origin *dist.Origin
	cfg    Config

	mu    sync.Mutex
	subs  map[string]*Submission
	order []string

	// processMu serializes pipeline runs so two submissions cannot
	// interleave validation against a moving tip (Origin.Publish
	// re-validates regardless; this keeps verdicts honest).
	processMu sync.Mutex
	// last is the list at history seq lastSeq: the list the previous
	// publish built as next, its packed matcher already compiled. It is
	// the next run's head while nothing else has appended to the
	// history. Keyed on the seq, not the fingerprint: another writer's
	// add-then-remove returns to the same fingerprint at a later seq.
	// Guarded by processMu.
	last    *psl.List
	lastSeq int

	// hosts is Config.Population.Hosts normalised once (psl.Normalize),
	// index for index; "" marks a host that does not normalise, which
	// maps to itself under every list and so never flips.
	hosts []string

	// fsys backs StateDir persistence: Config.FS (or the real OS)
	// wrapped with the "submit.persist.*" failpoint sites.
	fsys faultfs.FS

	received  obs.Counter
	published obs.Counter
	stagePass [5]obs.Counter
	stageFail [5]obs.Counter
	// persistFailures counts failed durable writes — the alertable
	// signal that the pipeline is running on degraded durability.
	persistFailures obs.Counter
	// quarantined counts corrupt records renamed aside at load time.
	quarantined obs.Counter
}

// stageIndex maps a stage name to its counter slot.
func stageIndex(stage string) int {
	for i, s := range Stages {
		if s == stage {
			return i
		}
	}
	return 0
}

// New builds a pipeline over the origin. The origin's history supplies
// the tip list every stage validates against. With cfg.StateDir set,
// previously persisted submissions are restored (an error there is
// surfaced, not swallowed — a corrupt store should fail loudly).
func New(origin *dist.Origin, cfg Config) (*Pipeline, error) {
	cfg = cfg.withDefaults()
	if cfg.Resolver == nil {
		return nil, errors.New("submit: Config.Resolver is required")
	}
	p := &Pipeline{
		origin: origin,
		cfg:    cfg,
		subs:   make(map[string]*Submission),
		fsys:   storeFS(cfg.FS),
	}
	if cfg.Population != nil {
		p.hosts = make([]string, len(cfg.Population.Hosts))
		for i, h := range cfg.Population.Hosts {
			if ascii, err := psl.Normalize(h); err == nil {
				p.hosts[i] = ascii
			}
		}
	}
	if cfg.StateDir != "" {
		if err := p.load(); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// RegisterMetrics attaches the psl_submit_* families to a registry.
func (p *Pipeline) RegisterMetrics(reg *obs.Registry) {
	reg.MustRegister("psl_submit_received_total", "Submissions received.", nil, &p.received)
	reg.MustRegister("psl_submit_published_total", "Submissions published to the origin.", nil, &p.published)
	for i, s := range Stages {
		reg.MustRegister("psl_submit_verdicts_total", "Stage verdicts, by stage and outcome.",
			obs.Labels{{"stage", s}, {"outcome", "pass"}}, &p.stagePass[i])
		reg.MustRegister("psl_submit_verdicts_total", "Stage verdicts, by stage and outcome.",
			obs.Labels{{"stage", s}, {"outcome", "fail"}}, &p.stageFail[i])
	}
	reg.MustRegister("psl_submit_persist_failures_total",
		"Failed durable writes of submission records (pipeline continues on in-memory state).",
		nil, &p.persistFailures)
	reg.MustRegister("psl_submit_quarantined_total",
		"Corrupt submission records renamed aside (.corrupt) at load time.",
		nil, &p.quarantined)
	for _, st := range []State{StatePending, StateChecking, StateRejected, StateAccepted, StatePublished} {
		st := st
		reg.MustRegister("psl_submit_submissions", "Submissions currently in each state.",
			obs.Labels{{"state", string(st)}}, obs.GaugeFunc(func() float64 {
				return float64(p.CountByState()[st])
			}))
	}
}

// PersistFailures reports failed durable writes of submission records.
func (p *Pipeline) PersistFailures() uint64 { return p.persistFailures.Load() }

// Quarantined reports corrupt records renamed aside at load time.
func (p *Pipeline) Quarantined() uint64 { return p.quarantined.Load() }

// CountByState tallies the stored submissions.
func (p *Pipeline) CountByState() map[State]int {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[State]int, 5)
	for _, s := range p.subs {
		out[s.State]++
	}
	return out
}

// Get returns a copy of the submission, or nil when unknown.
func (p *Pipeline) Get(id string) *Submission {
	p.mu.Lock()
	defer p.mu.Unlock()
	if s, ok := p.subs[id]; ok {
		return s.clone()
	}
	return nil
}

// All returns copies of every submission in arrival order.
func (p *Pipeline) All() []*Submission {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*Submission, 0, len(p.order))
	for _, id := range p.order {
		out = append(out, p.subs[id].clone())
	}
	return out
}

// Submit stores the request and, unless Config.Manual is set, runs the
// pipeline to completion. Re-submitting an identical request returns
// the existing record (the ID is content-addressed), so retries are
// idempotent — except a previously rejected submission, which re-runs:
// the submitter may have fixed the world (planted the TXT record) since.
func (p *Pipeline) Submit(req Request) (*Submission, error) {
	if len(req.Changes) == 0 {
		return nil, errors.New("submit: request has no changes")
	}
	id := ComputeID(req)
	now := time.Now()

	p.mu.Lock()
	s, exists := p.subs[id]
	if exists && s.State != StateRejected {
		out := s.clone()
		p.mu.Unlock()
		return out, nil
	}
	if exists {
		// Rejected: reset for a fresh run.
		s.State = StatePending
		s.Verdicts = nil
		s.RejectedStage = ""
		s.Risk = nil
		s.UpdatedAt = now
	} else {
		s = &Submission{ID: id, State: StatePending, Request: req, CreatedAt: now, UpdatedAt: now}
		p.subs[id] = s
		p.order = append(p.order, id)
		p.received.Add(1)
	}
	p.persistLocked(s)
	p.mu.Unlock()

	if p.cfg.Manual {
		return p.Get(id), nil
	}
	return p.Process(id)
}

// Process runs the staged checks on a stored submission and returns the
// final record. Safe to call on any state; a rejected or pending
// submission re-runs, a published one is returned as-is.
func (p *Pipeline) Process(id string) (*Submission, error) {
	p.processMu.Lock()
	defer p.processMu.Unlock()

	p.mu.Lock()
	s, ok := p.subs[id]
	if !ok {
		p.mu.Unlock()
		return nil, fmt.Errorf("submit: unknown submission %s", id)
	}
	if s.State == StatePublished {
		out := s.clone()
		p.mu.Unlock()
		return out, nil
	}
	s.State = StateChecking
	s.Verdicts = nil
	s.RejectedStage = ""
	s.Risk = nil
	s.UpdatedAt = time.Now()
	req := s.Request
	p.persistLocked(s)
	p.mu.Unlock()

	old := p.head()

	reject := func(v Verdict) (*Submission, error) {
		p.recordVerdict(id, v)
		return p.finish(id, StateRejected, v.Stage)
	}

	// Stage 1: lint.
	added, removed, next, v := p.runLint(req, old)
	p.recordVerdict(id, v)
	if !v.Passed {
		return p.finish(id, StateRejected, StageLint)
	}

	// Stage 2: semantic validation (packed matcher vs linear reference).
	if v = p.runSemantic(old, next, added, removed); !v.Passed {
		return reject(v)
	}
	p.recordVerdict(id, v)

	// Stage 3: DNS authorization.
	if v = p.runAuthorization(id, added, removed); !v.Passed {
		return reject(v)
	}
	p.recordVerdict(id, v)

	// Stage 4: propagation-risk scoring.
	risk, v := p.runRisk(old, next, added, removed)
	p.setRisk(id, risk)
	if !v.Passed {
		return reject(v)
	}
	p.recordVerdict(id, v)

	// All checks passed: accepted, then publish.
	if _, err := p.finish(id, StateAccepted, ""); err != nil {
		return nil, err
	}
	m, err := p.origin.Publish(time.Now(), added, removed)
	if err != nil {
		p.recordVerdict(id, p.verdict(StagePublish, false, err.Error(), nil))
		return p.finish(id, StateRejected, StagePublish)
	}
	p.recordVerdict(id, p.verdict(StagePublish, true,
		fmt.Sprintf("published as seq %d (%s)", m.Seq, m.Version), nil))
	p.published.Add(1)
	p.last, p.lastSeq = next, m.Seq

	p.mu.Lock()
	s = p.subs[id]
	s.State = StatePublished
	s.PublishedSeq = m.Seq
	s.Fingerprint = m.Fingerprint
	s.UpdatedAt = time.Now()
	p.persistLocked(s)
	out := s.clone()
	p.mu.Unlock()

	if p.cfg.OnPublish != nil {
		p.cfg.OnPublish(m, p.origin.History().ListAt(m.Seq))
	}
	return out, nil
}

// head returns the list at the origin's history tip, reusing the list
// the last publish built when no other writer has appended since.
// Caller holds processMu.
func (p *Pipeline) head() *psl.List {
	h := p.origin.History()
	if seq := h.Len() - 1; p.last == nil || seq != p.lastSeq {
		p.last, p.lastSeq = h.ListAt(seq), seq
	}
	return p.last
}

// verdict builds a stamped verdict and bumps the stage counters.
func (p *Pipeline) verdict(stage string, passed bool, detail string, findings []string) Verdict {
	i := stageIndex(stage)
	if passed {
		p.stagePass[i].Add(1)
	} else {
		p.stageFail[i].Add(1)
	}
	return Verdict{Stage: stage, Passed: passed, Detail: detail, Findings: findings, At: time.Now()}
}

func (p *Pipeline) recordVerdict(id string, v Verdict) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if s, ok := p.subs[id]; ok {
		// The verdict may already be recorded by a caller that both
		// built and recorded; dedup by stage.
		for _, have := range s.Verdicts {
			if have.Stage == v.Stage && have.At.Equal(v.At) {
				return
			}
		}
		s.Verdicts = append(s.Verdicts, v)
		s.UpdatedAt = time.Now()
		p.persistLocked(s)
	}
}

func (p *Pipeline) setRisk(id string, r *RiskReport) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if s, ok := p.subs[id]; ok {
		s.Risk = r
		p.persistLocked(s)
	}
}

func (p *Pipeline) finish(id string, st State, rejectedStage string) (*Submission, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	s, ok := p.subs[id]
	if !ok {
		return nil, fmt.Errorf("submit: unknown submission %s", id)
	}
	s.State = st
	s.RejectedStage = rejectedStage
	s.UpdatedAt = time.Now()
	p.persistLocked(s)
	return s.clone(), nil
}

// ParseChange validates one change against the grammar and returns the
// parsed rule plus whether the change is an addition. Clients (psltool)
// use it to derive the authorization owner before submitting.
func ParseChange(c Change) (rule psl.Rule, isAdd bool, err error) {
	return parseChange(c)
}

// parseChange validates one change against the grammar.
func parseChange(c Change) (rule psl.Rule, isAdd bool, err error) {
	var section psl.Section
	switch strings.ToLower(strings.TrimSpace(c.Section)) {
	case "icann":
		section = psl.SectionICANN
	case "private":
		section = psl.SectionPrivate
	default:
		return psl.Rule{}, false, fmt.Errorf("section %q is not icann or private", c.Section)
	}
	switch strings.ToLower(strings.TrimSpace(c.Op)) {
	case "add":
		isAdd = true
	case "remove":
		isAdd = false
	default:
		return psl.Rule{}, false, fmt.Errorf("op %q is not add or remove", c.Op)
	}
	rule, err = psl.ParseRule(strings.TrimSpace(c.Rule), section)
	if err != nil {
		return psl.Rule{}, false, err
	}
	return rule, isAdd, nil
}

// runLint grades the submission's surface form: every change must
// parse, no change may repeat, removals must name present rules and
// additions absent ones, and the resulting list must stay lint-clean
// for every finding attributable to a changed rule. On success it also
// returns the would-be list it linted.
func (p *Pipeline) runLint(req Request, old *psl.List) (added, removed []psl.Rule, next *psl.List, v Verdict) {
	var findings []string
	type parsed struct {
		idx   int
		rule  psl.Rule
		isAdd bool
	}
	// First pass: parse every change and reject duplicates. The dup key
	// includes the op so a remove+add of the same rule text — a section
	// move — parses as two distinct changes (the semantic stage then
	// rejects it as fingerprint-neutral, with a verdict that explains
	// why, rather than lint mislabelling it a duplicate).
	var changes []parsed
	seen := make(map[string]int)
	changedKeys := make(map[string]bool)
	removedKeys := make(map[string]bool)
	for i, c := range req.Changes {
		rule, isAdd, err := parseChange(c)
		if err != nil {
			findings = append(findings, fmt.Sprintf("change %d: %v", i, err))
			continue
		}
		key := rule.String()
		changedKeys[key] = true
		opKey := key
		if isAdd {
			opKey = "+" + opKey
		} else {
			opKey = "-" + opKey
			removedKeys[key] = true
		}
		if first, dup := seen[opKey]; dup {
			findings = append(findings, fmt.Sprintf("change %d: duplicates change %d (%s)", i, first, key))
			continue
		}
		seen[opKey] = i
		changes = append(changes, parsed{i, rule, isAdd})
	}
	// Second pass: check each change against the list head. An added
	// rule already present is fine when the same submission also
	// removes it (section move) — the semantic stage adjudicates those.
	for _, c := range changes {
		key := c.rule.String()
		if c.isAdd {
			if old.Contains(c.rule) && !removedKeys[key] {
				findings = append(findings, fmt.Sprintf("change %d: rule %q already in the list", c.idx, key))
				continue
			}
			added = append(added, c.rule)
		} else {
			if !old.Contains(c.rule) {
				findings = append(findings, fmt.Sprintf("change %d: rule %q not in the list", c.idx, key))
				continue
			}
			removed = append(removed, c.rule)
		}
	}
	if len(findings) > 0 {
		return nil, nil, nil, p.verdict(StageLint, false,
			fmt.Sprintf("%d change(s) failed lint", len(findings)), findings)
	}

	// Lint the would-be list; only findings attributable to the changed
	// rules count against the submission (pre-existing list warts must
	// not block an innocent change).
	next = old.WithDiff(psl.Diff{Removed: removed, Added: added})
	for _, f := range next.Lint() {
		if f.Severity >= psl.SeverityWarning && changedKeys[f.Rule] {
			findings = append(findings, f.String())
		}
	}
	if len(findings) > 0 {
		return nil, nil, nil, p.verdict(StageLint, false,
			"resulting list has lint findings on changed rules", findings)
	}
	return added, removed, next, p.verdict(StageLint, true,
		fmt.Sprintf("%d addition(s), %d removal(s) lint clean", len(added), len(removed)), nil)
}

// probesFor derives the differential probe names for one rule: the
// suffix itself plus one and two synthetic labels below it. These are
// exactly the name shapes whose Match result the rule can influence.
func probesFor(r psl.Rule) []string {
	s := r.Suffix
	return []string{s, "probe-a." + s, "probe-b.probe-a." + s}
}

// resultKey canonicalises a Match result for comparison.
func resultKey(r psl.Result) string {
	if r.Implicit {
		return fmt.Sprintf("implicit/%d", r.SuffixLabels)
	}
	return fmt.Sprintf("%s/%d", r.Rule.String(), r.SuffixLabels)
}

// runSemantic validates the delta's meaning: wildcard/exception
// pairing, reachability of every added rule, fingerprint neutrality,
// and — differentially — that the packed matcher every replica compiles
// agrees with the linear reference on every probe the change can
// influence. A disagreement would mean the fleet serves answers the
// list does not say, the one failure mode the dist fingerprint chain
// cannot catch. The lists' packed matchers compiled here are the ones
// the risk stage reuses.
func (p *Pipeline) runSemantic(old, next *psl.List, added, removed []psl.Rule) Verdict {
	var findings []string

	// Exceptions must cancel a wildcard in the resulting list.
	for _, r := range added {
		if !r.Exception {
			continue
		}
		parent, ok := parentSuffix(r.Suffix)
		if !ok {
			findings = append(findings, fmt.Sprintf("exception %q cancels nothing (single label)", r.String()))
			continue
		}
		if !coversWildcard(next, parent) {
			findings = append(findings, fmt.Sprintf("exception %q has no covering wildcard *.%s in the resulting list", r.String(), parent))
		}
	}
	// Removing a wildcard must not orphan surviving exceptions.
	for _, r := range removed {
		if !r.Wildcard {
			continue
		}
		for _, e := range next.Rules() {
			if !e.Exception {
				continue
			}
			if parent, ok := parentSuffix(e.Suffix); ok && parent == r.Suffix && !coversWildcard(next, parent) {
				findings = append(findings, fmt.Sprintf("removing %q orphans exception %q", r.String(), e.String()))
			}
		}
	}

	// Every added rule must be reachable: some probe must answer
	// differently with the rule in place. An added rule shadowed by a
	// prevailing rule (e.g. "foo.bar" under an existing "*.bar") has no
	// observable effect and is refused, like pslint's unreachable-rule
	// check. "Observable" means suffix length or the implicit bit — a
	// new TLD rule that matches where the implicit "*" used to is a real
	// change (the icann/explicit bit flips) even though the label count
	// holds.
	behavior := func(r psl.Result) string {
		return fmt.Sprintf("%d/%v", r.SuffixLabels, r.Implicit)
	}
	oldM, nextM := old.Matcher(), next.Matcher()
	for _, r := range added {
		effect := false
		for _, probe := range probesFor(r) {
			if behavior(oldM.Match(probe)) != behavior(nextM.Match(probe)) {
				effect = true
				break
			}
		}
		if !effect {
			findings = append(findings, fmt.Sprintf("rule %q is unreachable: no lookup answer changes (shadowed by a prevailing rule?)", r.String()))
		}
	}

	// The delta must change the rule-set fingerprint — fingerprints
	// ignore Section, so a pure section move is invisible to the
	// manifest ETag and would stall every conditional poller. The
	// origin's chain answers it the way Origin.Publish does, from its
	// live sorted tip set, so the two refusals cannot disagree.
	chain := p.origin.Chain()
	if chain.Fingerprint(chain.Len()-1) == chain.PreviewFingerprint(added, removed) {
		findings = append(findings, "delta does not change the rule-set fingerprint (pure section move or no-op)")
	}

	// Differential validation: the packed matcher must agree with the
	// linear reference on every probe derived from the changed rules.
	ref := psl.NewLinearMatcher(next)
	probes := 0
	for _, r := range append(append([]psl.Rule(nil), added...), removed...) {
		for _, probe := range probesFor(r) {
			probes++
			want, got := resultKey(ref.Match(probe)), resultKey(nextM.Match(probe))
			if got != want {
				findings = append(findings, fmt.Sprintf("matcher divergence on %q: linear=%s, packed=%s",
					probe, want, got))
			}
		}
	}

	if len(findings) > 0 {
		return p.verdict(StageSemantic, false, "semantic validation failed", findings)
	}
	return p.verdict(StageSemantic, true,
		fmt.Sprintf("packed matcher agrees with the linear reference on %d probes", probes), nil)
}

// AuthOwner returns the DNS name whose _psl TXT record authorizes a
// change to this rule: the rule's base suffix, or the exception's
// parent (the wildcard owner it cancels). Exported so psltool can tell
// submitters where to plant the record.
func AuthOwner(r psl.Rule) string {
	if r.Exception {
		if parent, ok := parentSuffix(r.Suffix); ok {
			return parent
		}
	}
	return r.Suffix
}

// runAuthorization checks the _psl TXT convention: every distinct owner
// touched by the delta must publish a TXT record at _psl.<owner> whose
// value contains the submission ID. CNAME chasing, multi-label wildcard
// owners and injected faults are all dnssim's department; this stage
// just reads and reports.
func (p *Pipeline) runAuthorization(id string, added, removed []psl.Rule) Verdict {
	owners := make(map[string]bool)
	for _, r := range append(append([]psl.Rule(nil), added...), removed...) {
		owners[AuthOwner(r)] = true
	}
	sorted := make([]string, 0, len(owners))
	for o := range owners {
		sorted = append(sorted, o)
	}
	sort.Strings(sorted)

	var findings []string
	for _, owner := range sorted {
		name := "_psl." + owner
		values, err := p.cfg.Resolver.TXT(name)
		if err != nil {
			switch {
			case errors.Is(err, dnssim.ErrNXDomain):
				findings = append(findings, fmt.Sprintf("%s: no _psl TXT record (NXDOMAIN)", name))
			case errors.Is(err, dnssim.ErrTimeout):
				findings = append(findings, fmt.Sprintf("%s: query timed out", name))
			default:
				findings = append(findings, fmt.Sprintf("%s: %v", name, err))
			}
			continue
		}
		ok := false
		for _, v := range values {
			if strings.Contains(v, id) {
				ok = true
				break
			}
		}
		if !ok {
			findings = append(findings, fmt.Sprintf("%s: TXT record present but does not contain submission ID %s", name, id))
		}
	}
	if len(findings) > 0 {
		return p.verdict(StageAuthorization, false,
			fmt.Sprintf("%d of %d owner(s) failed _psl TXT verification", len(findings), len(sorted)), findings)
	}
	return p.verdict(StageAuthorization, true,
		fmt.Sprintf("all %d owner(s) verified via _psl TXT", len(sorted)), nil)
}

// runRisk replays the harm pipeline on a sandbox old-vs-new compile:
// for every hostname in the population, does its registrable domain
// (and with it every cached cookie scope) flip if this delta deploys?
//
// A host's Match answer depends only on the rules whose suffix is a
// domain suffix of the host, so only hosts under a changed rule's
// suffix (plain, wildcard base or exception, added or removed) can
// flip. Those are the only hosts scored; the report equals a full
// population scan's.
func (p *Pipeline) runRisk(old, next *psl.List, added, removed []psl.Rule) (*RiskReport, Verdict) {
	r := &RiskReport{
		MaxFlipFraction: p.cfg.MaxFlipFraction,
	}
	changed := append(append([]psl.Rule(nil), added...), removed...)
	if p.cfg.Population != nil {
		r.Population = len(p.cfg.Population.Hosts)
		for i, h := range p.cfg.Population.Hosts {
			if !underAny(p.hosts[i], changed) {
				continue
			}
			os, ns := old.SiteOrSelf(h), next.SiteOrSelf(h)
			if os == ns {
				continue
			}
			r.SiteFlips++
			if domain.CountLabels(ns) < domain.CountLabels(os) {
				r.ScopeWidened++
			} else {
				r.ScopeNarrowed++
			}
			if len(r.SampleFlips) < maxSampleFlips {
				r.SampleFlips = append(r.SampleFlips, fmt.Sprintf("%s: %s -> %s", h, os, ns))
			}
		}
	}
	if r.Population > 0 {
		r.FlipFraction = float64(r.SiteFlips) / float64(r.Population)
	}
	// Synthetic probes under every changed suffix illustrate the flip
	// direction even when nobody in the population lives there. They
	// size nothing — a change affecting only its own subtree is exactly
	// the low-risk case — so they feed the sample list, not the gate.
	for _, rule := range changed {
		for _, h := range probesFor(rule) {
			os, ns := old.SiteOrSelf(h), next.SiteOrSelf(h)
			if os == ns || len(r.SampleFlips) >= maxSampleFlips {
				continue
			}
			r.SampleFlips = append(r.SampleFlips, fmt.Sprintf("probe %s: %s -> %s", h, os, ns))
		}
	}
	detail := fmt.Sprintf("%d/%d population hosts flip registrable domain (%d cookie scopes widen, %d narrow)",
		r.SiteFlips, r.Population, r.ScopeWidened, r.ScopeNarrowed)
	if r.FlipFraction > r.MaxFlipFraction {
		return r, p.verdict(StageRisk, false,
			detail+fmt.Sprintf("; flip fraction %.4f exceeds ceiling %.4f", r.FlipFraction, r.MaxFlipFraction),
			r.SampleFlips)
	}
	return r, p.verdict(StageRisk, true, detail, nil)
}

// underAny reports whether the normalised host sits at or below any of
// the rules' suffixes. The empty host (one that failed normalisation)
// sits under none, since no rule has an empty suffix.
func underAny(host string, rules []psl.Rule) bool {
	for _, r := range rules {
		if domain.HasSuffix(host, r.Suffix) {
			return true
		}
	}
	return false
}

// parentSuffix strips the first label; mirrors lint's parentOf.
func parentSuffix(s string) (string, bool) {
	i := strings.IndexByte(s, '.')
	if i < 0 {
		return "", false
	}
	return s[i+1:], true
}

// coversWildcard reports whether the list holds a wildcard rule at the
// given base suffix.
func coversWildcard(l *psl.List, base string) bool {
	for _, r := range l.Rules() {
		if r.Wildcard && r.Suffix == base {
			return true
		}
	}
	return false
}
