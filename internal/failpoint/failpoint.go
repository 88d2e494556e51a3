// Package failpoint is the one fault-decision engine: a named, seeded,
// deterministic fault-injection registry in the style of etcd's gofail.
// Code declares injection sites as package-level variables, each with
// its kind — a storage site returns injected errors, an HTTP site
// renders network faults around a handler:
//
//	var fpRename = failpoint.New("dist.state.rename")  // storage
//	var fpList = failpoint.NewHTTP("fetch.list")        // HTTP
//
// — and consults them at the moment the corresponding real-world
// failure would strike:
//
//	if err := fpRename.Inject(); err != nil {
//	    return err
//	}
//	http.Handle("/", fpList.Wrap(h))
//
// A disarmed site is two atomic loads and no allocation, so sites stay
// compiled into production binaries; the zero-alloc guards in this
// package pin that for Inject and for Wrap. Sites are armed
// programmatically (Arm) or from a spec string, the same syntax
// everywhere — flag, fleet scenario, torture case, e2e test:
//
//	dist.state.rename=err(1);fetch.list=status(0.1)|truncate(0.05,seed=7)
//
// A term arms one site with one or more actions separated by '|'. Each
// hit draws one number from the site's own seeded RNG and walks the
// actions in order, so their probabilities add up (to at most 1) and a
// given (spec, seed) pair produces the identical fault schedule on every
// run — a failing case ships as the one-line Recipe that reproduces it.
// The schedule itself can be captured (StartTrace / StopTrace) and
// compared byte-for-byte, which is how the torture harness proves
// determinism rather than asserting it.
//
// Storage actions (sites made with New):
//
//	err(p[,errno=NAME])   return an injected error; errno wraps a real
//	                      syscall errno (ENOSPC, EIO, EACCES, EINTR) so
//	                      errors.Is paths see the genuine sentinel
//	crash(p)              panic with a Crash value — the simulated power
//	                      cut the torture harness recovers
//
// HTTP actions (sites made with NewHTTP, rendered by Wrap):
//
//	delay(p[,ms=N])       serve intact after N ms (default 50)
//	reset(p)              abort the connection before any byte
//	truncate(p)           promise the full Content-Length, send half,
//	                      abort
//	bitflip(p)            a healthy-looking 200 with flipped bytes
//	status(p)             503, and 503 again for the next two hits: a
//	                      3-response outage burst
//	stall(p[,ms=N])       send nothing for N ms (default 250), abort
//
// Every action also takes seed=N (the site's RNG seed; default derived
// from the base seed and the site name), after=K (skip the site's first
// K hits) and limit=M (stop after M fires, burst responses included).
// `name=off` disarms a site.
package failpoint

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"

	"repro/internal/obs"
)

// ErrInjected is the sentinel wrapped by every injected error, so
// callers and tests can errors.Is an injected failure apart from a real
// one.
var ErrInjected = errors.New("failpoint: injected fault")

// Crash is the panic value a crash-armed failpoint throws: the
// simulated power cut. The torture harness recovers it; anything else
// lets it propagate (a production crash test wants the process dead).
type Crash struct {
	// Name is the failpoint that fired.
	Name string
}

func (c Crash) Error() string { return "failpoint: simulated crash at " + c.Name }

// errnos maps spec errno names to the real sentinels, so an injected
// "disk full" satisfies errors.Is(err, syscall.ENOSPC) exactly like the
// genuine article.
var errnos = map[string]error{
	"ENOSPC": syscall.ENOSPC,
	"EIO":    syscall.EIO,
	"EACCES": syscall.EACCES,
	"EINTR":  syscall.EINTR,
}

// kind is one action of the spec grammar. Storage kinds precede
// kindDelay; every kind from kindDelay on is an HTTP action.
type kind uint8

const (
	kindErr kind = iota
	kindCrash
	kindDelay
	kindReset
	kindTruncate
	kindBitflip
	kindStatus
	kindStall
)

var kindNames = [...]string{"err", "crash", "delay", "reset", "truncate", "bitflip", "status", "stall"}

// String is the action's spec keyword, also its transcript decision.
func (k kind) String() string { return kindNames[k] }

func (k kind) isHTTP() bool { return k >= kindDelay }

// siteKind is what a site's owner declared it to be.
type siteKind uint8

const (
	siteStorage siteKind = iota
	siteHTTP
)

func (k siteKind) String() string {
	if k == siteHTTP {
		return "HTTP"
	}
	return "storage"
}

// action is one armed action. Guarded by the owning Failpoint's mu.
type action struct {
	kind  kind
	prob  float64
	errno error // non-nil: wrap this sentinel under ErrInjected
	after int   // skip the site's first `after` hits
	limit int   // stop firing after `limit` fires (0 = unlimited)
	ms    int   // delay and stall duration
	fired int
}

// plan is a site's armed state: its actions, the one RNG they draw
// from, and the status burst in progress. Guarded by Failpoint.mu.
type plan struct {
	acts []*action
	seed int64 // 0 = derive from the arm-time base seed and the name
	hits int   // decisions drawn while this plan was armed
	rng  *rand.Rand

	burst   int     // status responses still owed by the current burst
	burstOf *action // the status action that opened it
}

// isHTTP reports the plan's action class (parse keeps a site's actions
// in one class).
func (p *plan) isHTTP() bool { return p.acts[0].kind.isHTTP() }

// statusBurst is how many consecutive responses one status fire
// poisons: a correlated outage rather than one blip.
const statusBurst = 3

// pick resolves one hit: a burst in progress first, then one draw from
// the site RNG walked across the eligible actions' probabilities.
func (p *plan) pick(hit int) *action {
	if p.burst > 0 {
		if a := p.burstOf; a.limit == 0 || a.fired < a.limit {
			p.burst--
			return a
		}
		p.burst = 0
	}
	var u, cum float64
	drawn := false
	for _, a := range p.acts {
		if hit < a.after || (a.limit > 0 && a.fired >= a.limit) {
			continue
		}
		if a.prob < 1 {
			if !drawn {
				u, drawn = p.rng.Float64(), true
			}
			if cum += a.prob; u >= cum {
				continue
			}
		}
		if a.kind == kindStatus {
			p.burst, p.burstOf = statusBurst-1, a
		}
		return a
	}
	return nil
}

// Failpoint is one named injection site. The zero value is not usable;
// declare sites with New or NewHTTP.
type Failpoint struct {
	name  string
	kind  siteKind // guarded by registry.mu
	armed atomic.Bool

	mu   sync.Mutex
	plan *plan

	hits     atomic.Uint64 // decisions while armed or observing
	triggers obs.Counter
}

// Name reports the site's registered name.
func (f *Failpoint) Name() string { return f.name }

// Triggers reports how many times this site has fired since process
// start.
func (f *Failpoint) Triggers() uint64 { return f.triggers.Load() }

// Hits reports decisions counted while the site was armed or the
// registry was observing. Disarmed, non-observing calls are not counted
// — that is what keeps them free.
func (f *Failpoint) Hits() uint64 { return f.hits.Load() }

// registry is the process-global site table. Sites register at package
// init of their owning packages (or lazily from an instrumented FS), so
// by the time a main registers metrics every linked-in site exists.
var registry = struct {
	mu     sync.Mutex
	byName map[string]*Failpoint
}{byName: make(map[string]*Failpoint)}

// observing, when set, makes even disarmed sites count hits — the
// torture harness uses it to enumerate which sites a workload passes
// through. Off by default so the production fast path stays two atomic
// loads.
var observing atomic.Bool

// SetObserve toggles hit counting on disarmed sites.
func SetObserve(on bool) { observing.Store(on) }

// New returns the storage site registered under name, creating it on
// first use. Idempotent: a site declared in two places (a package-level
// var and an instrumented FS built over the same prefix) shares one
// registration, one counter, one armed state.
func New(name string) *Failpoint { return declare(name, siteStorage) }

// NewHTTP returns the HTTP site registered under name, creating it on
// first use; render it around a handler with Wrap.
func NewHTTP(name string) *Failpoint { return declare(name, siteHTTP) }

func declare(name string, k siteKind) *Failpoint {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	f, ok := registry.byName[name]
	if !ok {
		f = &Failpoint{name: name, kind: k}
		registry.byName[name] = f
	} else if f.kind != k {
		panic(fmt.Sprintf("failpoint: site %s declared both %v and %v", name, f.kind, k))
	}
	return f
}

// List reports every registered site name, sorted.
func List() []string {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	out := make([]string, 0, len(registry.byName))
	for name := range registry.byName {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Triggers reports the fire count of one site (0 for unknown names).
func Triggers(name string) uint64 {
	registry.mu.Lock()
	f := registry.byName[name]
	registry.mu.Unlock()
	if f == nil {
		return 0
	}
	return f.Triggers()
}

// TriggerCounts snapshots every site's fire count, keyed by name.
func TriggerCounts() map[string]uint64 {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	out := make(map[string]uint64, len(registry.byName))
	for name, f := range registry.byName {
		out[name] = f.triggers.Load()
	}
	return out
}

// HitCounts snapshots every site's hit count, keyed by name. Only
// meaningful while observing or armed (see Hits).
func HitCounts() map[string]uint64 {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	out := make(map[string]uint64, len(registry.byName))
	for name, f := range registry.byName {
		out[name] = f.hits.Load()
	}
	return out
}

// RegisterMetrics attaches psl_failpoint_triggers_total{name=...} for
// every registered site to reg, so armed runs are visible on /metrics.
// Call once per registry, after every site-owning package has linked in
// (any time after init works — sites register at package init).
func RegisterMetrics(reg *obs.Registry) {
	registry.mu.Lock()
	names := make([]string, 0, len(registry.byName))
	for name := range registry.byName {
		names = append(names, name)
	}
	sort.Strings(names)
	fps := make([]*Failpoint, len(names))
	for i, name := range names {
		fps[i] = registry.byName[name]
	}
	registry.mu.Unlock()
	for i, name := range names {
		reg.MustRegister("psl_failpoint_triggers_total", "Failpoint fires, by site name.",
			obs.Labels{{"name", name}}, &fps[i].triggers)
	}
}

// Inject consults a storage site. Disarmed (the production state) it
// returns nil after two atomic loads and zero allocations. Armed it
// draws the seeded decision and either returns nil, returns an injected
// error, or panics with Crash.
func (f *Failpoint) Inject() error {
	if !f.armed.Load() {
		if observing.Load() {
			f.hits.Add(1)
		}
		return nil
	}
	a, ok, _ := f.decide()
	if !ok {
		return nil
	}
	if a.kind == kindCrash {
		panic(Crash{Name: f.name})
	}
	if a.errno != nil {
		return fmt.Errorf("%w: %s: %w", ErrInjected, f.name, a.errno)
	}
	return fmt.Errorf("%w: %s", ErrInjected, f.name)
}

// decide is the armed slow path every site kind shares: it counts the
// hit, picks the firing action (ok=false: pass), records the decision
// in the trace, and for bitflip also draws the seed of the flip
// positions, so the damage replays with the schedule.
func (f *Failpoint) decide() (a action, ok bool, flipSeed int64) {
	f.mu.Lock()
	p := f.plan
	if p == nil {
		// Disarm raced with the fast path; nothing to do.
		f.mu.Unlock()
		f.hits.Add(1)
		return action{}, false, 0
	}
	hit := p.hits
	p.hits++
	fired := p.pick(hit)
	if fired != nil {
		fired.fired++
		a, ok = *fired, true
		if a.kind == kindBitflip {
			flipSeed = p.rng.Int63()
		}
	}
	f.mu.Unlock()
	f.hits.Add(1)

	if !ok {
		traceEvent(f.name, hit, "pass")
		return a, false, 0
	}
	f.triggers.Add(1)
	traceEvent(f.name, hit, a.kind.String())
	return a, true, flipSeed
}

// arm installs a plan on the site.
func (f *Failpoint) arm(p *plan, baseSeed int64) {
	seed := p.seed
	if seed == 0 {
		// Derive a stable per-site seed so two sites armed from one spec
		// don't share a stream (which would couple their decisions).
		h := fnv.New64a()
		_, _ = h.Write([]byte(f.name))
		seed = baseSeed + int64(h.Sum64()&0x7fffffff)
	}
	p.rng = rand.New(rand.NewSource(seed))
	f.mu.Lock()
	f.plan = p
	f.mu.Unlock()
	f.armed.Store(true)
}

// Disarm removes any armed action from the named site.
func Disarm(name string) {
	registry.mu.Lock()
	f := registry.byName[name]
	registry.mu.Unlock()
	if f == nil {
		return
	}
	f.armed.Store(false)
	f.mu.Lock()
	f.plan = nil
	f.mu.Unlock()
}

// DisarmAll returns every site to the disarmed state.
func DisarmAll() {
	for _, name := range List() {
		Disarm(name)
	}
}

// Arm validates spec (see Check) and arms every named site, registering
// storage sites the binary has not touched yet (an instrumented FS is
// typically built after its spec is armed). baseSeed feeds every site
// whose actions carry no seed=N. An empty spec is a no-op.
func Arm(spec string, baseSeed int64) error {
	plans, err := check(spec)
	if err != nil {
		return err
	}
	for name, p := range plans {
		if p == nil {
			Disarm(name)
			continue
		}
		k := siteStorage
		if p.isHTTP() {
			k = siteHTTP
		}
		declare(name, k).arm(p, baseSeed)
	}
	return nil
}

// Check parses spec and validates it against the sites the binary has
// declared: a storage action on an HTTP site, an HTTP action on a
// storage site, or an HTTP action on a site nobody declared is an error
// naming the site. (HTTP sites are package-level NewHTTP vars, declared
// at init; storage sites may be declared later, by an instrumented FS.)
// Flag parsing calls it so a bad spec fails before any socket is bound.
func Check(spec string) error {
	_, err := check(spec)
	return err
}

func check(spec string) (map[string]*plan, error) {
	plans, err := parse(spec)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(plans))
	for name := range plans {
		names = append(names, name)
	}
	sort.Strings(names)
	registry.mu.Lock()
	defer registry.mu.Unlock()
	for _, name := range names {
		p, f := plans[name], registry.byName[name]
		if p == nil || (f == nil && !p.isHTTP()) {
			continue
		}
		if f == nil {
			return nil, fmt.Errorf("failpoint: %s is not a declared HTTP site", name)
		}
		if p.isHTTP() != (f.kind == siteHTTP) {
			return nil, fmt.Errorf("failpoint: %s takes %v actions, not %v", name, f.kind, p.acts[0].kind)
		}
	}
	return plans, nil
}

// SpecHasCrash reports whether any term in spec is a crash action.
// Callers that run workloads on goroutines with no recover in reach —
// the fleet simulator arms one spec across hundreds of edges — reject
// such specs up front instead of dying mid-run; crash mode belongs to
// harnesses (internal/torture) that convert the panic into a simulated
// power cut.
func SpecHasCrash(spec string) (bool, error) {
	plans, err := check(spec)
	if err != nil {
		return false, err
	}
	for _, p := range plans {
		if p == nil {
			continue
		}
		for _, a := range p.acts {
			if a.kind == kindCrash {
				return true, nil
			}
		}
	}
	return false, nil
}

// Recipe renders the one-line re-run recipe of a fault run: Arm(spec,
// seed) over the same request sequence replays its schedule.
func Recipe(seed int64, spec string) string {
	return fmt.Sprintf("seed=%d spec=%q", seed, spec)
}

// parse validates a spec string without touching the registry,
// returning the parsed plans keyed by site name (nil plan = "off").
func parse(spec string) (map[string]*plan, error) {
	out := make(map[string]*plan)
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, actions, ok := strings.Cut(part, "=")
		name = strings.TrimSpace(name)
		if !ok || name == "" {
			return nil, fmt.Errorf("failpoint: term %q is not name=action", part)
		}
		p, err := parsePlan(strings.TrimSpace(actions))
		if err != nil {
			return nil, fmt.Errorf("failpoint: %s: %w", name, err)
		}
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("failpoint: %s armed twice in one spec", name)
		}
		out[name] = p
	}
	return out, nil
}

// parsePlan parses `off` or `action|action|...` for one site.
func parsePlan(s string) (*plan, error) {
	if s == "off" {
		return nil, nil
	}
	p := &plan{}
	var total float64
	for _, as := range strings.Split(s, "|") {
		a, seed, err := parseAction(strings.TrimSpace(as))
		if err != nil {
			return nil, err
		}
		if len(p.acts) > 0 && a.kind.isHTTP() != p.isHTTP() {
			return nil, fmt.Errorf("%v and %v mix storage and HTTP actions on one site", p.acts[0].kind, a.kind)
		}
		if seed != 0 {
			if p.seed != 0 && p.seed != seed {
				return nil, fmt.Errorf("actions name two seeds (%d, %d); a site has one RNG", p.seed, seed)
			}
			p.seed = seed
		}
		total += a.prob
		p.acts = append(p.acts, a)
	}
	if total > 1+1e-9 {
		return nil, fmt.Errorf("action probabilities sum to %v, above 1", total)
	}
	return p, nil
}

// parseAction parses one `kind(p[,key=value]...)` and its seed (0 when
// absent).
func parseAction(s string) (*action, int64, error) {
	name, rest, ok := strings.Cut(s, "(")
	if !ok || !strings.HasSuffix(rest, ")") {
		return nil, 0, fmt.Errorf("action %q is not kind(args) or off", s)
	}
	k := slices.Index(kindNames[:], name)
	if k < 0 {
		return nil, 0, fmt.Errorf("unknown action kind %q (want one of %s)", name, strings.Join(kindNames[:], ", "))
	}
	a := &action{kind: kind(k)}
	switch a.kind {
	case kindDelay:
		a.ms = 50
	case kindStall:
		a.ms = 250
	}
	args := strings.Split(strings.TrimSuffix(rest, ")"), ",")
	if strings.TrimSpace(args[0]) == "" {
		return nil, 0, fmt.Errorf("action %q is missing its probability", s)
	}
	prob, err := strconv.ParseFloat(strings.TrimSpace(args[0]), 64)
	if err != nil || prob < 0 || prob > 1 {
		return nil, 0, fmt.Errorf("probability %q out of [0, 1]", args[0])
	}
	a.prob = prob
	var seed int64
	for _, kv := range args[1:] {
		key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return nil, 0, fmt.Errorf("argument %q is not key=value", kv)
		}
		switch key {
		case "seed":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil || n == 0 {
				return nil, 0, fmt.Errorf("seed %q is not a non-zero integer", val)
			}
			seed = n
		case "after", "limit":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return nil, 0, fmt.Errorf("%s %q is not a non-negative integer", key, val)
			}
			if key == "after" {
				a.after = n
			} else {
				a.limit = n
			}
		case "errno":
			sentinel, ok := errnos[val]
			if !ok {
				known := make([]string, 0, len(errnos))
				for name := range errnos {
					known = append(known, name)
				}
				sort.Strings(known)
				return nil, 0, fmt.Errorf("unknown errno %q (want one of %s)", val, strings.Join(known, ", "))
			}
			if a.kind != kindErr {
				return nil, 0, fmt.Errorf("errno=%s is meaningless on %v", val, a.kind)
			}
			a.errno = sentinel
		case "ms":
			n, err := strconv.Atoi(val)
			if err != nil || n <= 0 {
				return nil, 0, fmt.Errorf("ms %q is not a positive integer", val)
			}
			if a.kind != kindDelay && a.kind != kindStall {
				return nil, 0, fmt.Errorf("ms=%s is meaningless on %v", val, a.kind)
			}
			a.ms = n
		default:
			return nil, 0, fmt.Errorf("unknown argument %q", key)
		}
	}
	return a, seed, nil
}

// trace is the armed-decision log behind the determinism contract: with
// tracing on, every armed decision appends one line, and two runs of the
// same (spec, seed, workload) must produce byte-identical transcripts.
var trace = struct {
	mu sync.Mutex
	on bool
	b  strings.Builder
}{}

// StartTrace begins recording armed injection decisions, discarding any
// previous transcript.
func StartTrace() {
	trace.mu.Lock()
	defer trace.mu.Unlock()
	trace.on = true
	trace.b.Reset()
}

// StopTrace ends recording and returns the transcript: one
// "name#hit decision" line per armed decision, in execution order; the
// decision is "pass" or the action that fired.
func StopTrace() string {
	trace.mu.Lock()
	defer trace.mu.Unlock()
	trace.on = false
	out := trace.b.String()
	trace.b.Reset()
	return out
}

func traceEvent(name string, hit int, decision string) {
	trace.mu.Lock()
	defer trace.mu.Unlock()
	if !trace.on {
		return
	}
	trace.b.WriteString(name)
	trace.b.WriteByte('#')
	trace.b.WriteString(strconv.Itoa(hit))
	trace.b.WriteByte(' ')
	trace.b.WriteString(decision)
	trace.b.WriteByte('\n')
}
