package fleet

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dist"
	"repro/internal/failpoint"
	"repro/internal/faultfs"
	"repro/internal/history"
	"repro/internal/obs"
	"repro/internal/psl"
)

// Tier names used for chaos targeting and reporting.
const (
	TierOrigin = "origin" // faults between relays (or 1-tier edges) and the origin
	TierRelay  = "relay"  // faults between edges and the relay tier
)

// The network-fault sites in front of each tier, one per tier however
// many nodes it has: every relay answers behind the one fleet.relay
// site, so a tier's faults draw from one seeded schedule and one
// trigger counter.
const (
	SiteOrigin = "fleet.origin"
	SiteRelay  = "fleet.relay"
)

var (
	fpOrigin = failpoint.NewHTTP(SiteOrigin)
	fpRelay  = failpoint.NewHTTP(SiteRelay)
)

// tierSites maps a chaos tier to its site.
var tierSites = map[string]string{TierOrigin: SiteOrigin, TierRelay: SiteRelay}

// Config parameterises one fleet run. Zero values get defaults; the
// whole struct is echoed into the report, so two runs are comparable
// iff their echoes match.
type Config struct {
	// Seed drives everything: poll jitter, churn victims, chaos
	// decisions, and replica backoff jitter all derive from it.
	Seed int64 `json:"seed"`
	// Edges is the initial edge-replica population.
	Edges int `json:"edges"`
	// Relays is the relay-tier width; 0 runs single-tier (every edge
	// polls the origin directly — the naive baseline the fan-out is
	// measured against).
	Relays int `json:"relays"`
	// Retain is each relay's snapshot window.
	Retain int `json:"retain"`
	// Versions is the generated history length.
	Versions int `json:"versions"`
	// StartHead is the origin's initially published version.
	StartHead int `json:"start_head"`
	// HeadStep versions are published every AdvanceEvery during the run.
	HeadStep     int           `json:"head_step"`
	AdvanceEvery time.Duration `json:"advance_every_ns"`
	// Duration is the churn-and-chaos phase length; after it the fleet
	// gets a quiet convergence window.
	Duration time.Duration `json:"duration_ns"`
	// BasePoll is the median edge poll interval; per-edge intervals are
	// lognormal around it with sigma PollSkew, clamped to [1/8, 8]×.
	BasePoll time.Duration `json:"base_poll_ns"`
	PollSkew float64       `json:"poll_skew"`
	// ChurnFraction of the initial edges is killed mid-run; each victim
	// is replaced by a fresh edge RejoinDelay later when time permits.
	ChurnFraction float64       `json:"churn_fraction"`
	RejoinDelay   time.Duration `json:"rejoin_delay_ns"`
	// ChaosRate arms the sites of ChaosTiers with all six HTTP actions
	// sharing that rate (see FaultSpec) from the moment the relays have
	// bootstrapped until Duration ends.
	ChaosRate  float64  `json:"chaos_rate"`
	ChaosTiers []string `json:"chaos_tiers,omitempty"`
	// MaxHop bounds edge and relay patch spans.
	MaxHop int `json:"max_hop"`
	// SampleEvery is the lag sampler cadence.
	SampleEvery time.Duration `json:"sample_every_ns"`
	// ConvergeTimeout bounds the quiet window after Duration in which
	// every live edge must reach the final head.
	ConvergeTimeout time.Duration `json:"converge_timeout_ns"`

	// Failpoints, when non-empty, is a failpoint spec (see
	// internal/failpoint) armed for the whole run with Seed as the base
	// seed and disarmed when Run returns — storage faults, or HTTP
	// actions on the fleet.origin / fleet.relay sites, joined with the
	// terms ChaosRate builds into one spec. Crash terms are a setup
	// error: a crash-mode panic on an edge goroutine would kill the
	// simulator process (crash belongs to internal/torture, which
	// converts the panic into a simulated power cut).
	Failpoints string `json:"failpoints,omitempty"`
	// EdgeState gives every edge its own in-memory state dir
	// (faultfs.MemFS behind dist.ReplicaOptions.FS), so each verified
	// install runs the full persistence discipline and the dist.state.*
	// failpoint sites fire under churn. Without it edges are stateless
	// and a storage-fault spec has nothing to strike.
	EdgeState bool `json:"edge_state,omitempty"`

	// Metrics, when non-nil, receives the run's metric families (origin,
	// failpoint triggers, and fleet-level lag/egress gauges). Not echoed.
	Metrics *obs.Registry `json:"-"`
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Edges <= 0 {
		c.Edges = 100
	}
	if c.Relays < 0 {
		c.Relays = 0
	}
	if c.Retain <= 0 {
		c.Retain = 128
	}
	if c.Versions <= 0 {
		c.Versions = 160
	}
	if c.StartHead < 0 || c.StartHead >= c.Versions {
		c.StartHead = 0
	}
	if c.HeadStep <= 0 {
		c.HeadStep = 2
	}
	if c.Duration <= 0 {
		c.Duration = 2 * time.Second
	}
	if c.AdvanceEvery <= 0 {
		c.AdvanceEvery = c.Duration / 10
	}
	if c.BasePoll <= 0 {
		c.BasePoll = 50 * time.Millisecond
	}
	if c.PollSkew <= 0 {
		c.PollSkew = 0.5
	}
	if c.ChurnFraction < 0 || c.ChurnFraction > 1 {
		c.ChurnFraction = 0
	}
	if c.RejoinDelay <= 0 {
		c.RejoinDelay = c.Duration / 8
	}
	if c.MaxHop <= 0 {
		c.MaxHop = 16
	}
	if c.SampleEvery <= 0 {
		c.SampleEvery = c.Duration / 10
	}
	if c.ConvergeTimeout <= 0 {
		c.ConvergeTimeout = 30 * time.Second
	}
	return c
}

// FaultSpec is the one failpoint spec a run arms: Failpoints joined
// with the chaos terms (see chaosSpec).
func (c Config) FaultSpec() (string, error) {
	chaos, err := c.chaosSpec()
	if err != nil || c.Failpoints == "" || chaos == "" {
		return c.Failpoints + chaos, err
	}
	return c.Failpoints + ";" + chaos, nil
}

// chaosSpec arms, for each of ChaosTiers, its site with every HTTP
// action at ChaosRate/6 — delays of BasePoll/4 and stalls of BasePoll.
func (c Config) chaosSpec() (string, error) {
	var terms []string
	p := strconv.FormatFloat(c.ChaosRate/6, 'g', -1, 64)
	delay, stall := max(1, c.BasePoll.Milliseconds()/4), max(1, c.BasePoll.Milliseconds())
	actions := fmt.Sprintf("delay(%[1]s,ms=%[2]d)|reset(%[1]s)|truncate(%[1]s)|bitflip(%[1]s)|status(%[1]s)|stall(%[1]s,ms=%[3]d)", p, delay, stall)
	for _, tier := range c.ChaosTiers {
		site, ok := tierSites[tier]
		if !ok {
			return "", fmt.Errorf("fleet: unknown chaos tier %q", tier)
		}
		if c.ChaosRate > 0 {
			terms = append(terms, site+"="+actions)
		}
	}
	return strings.Join(terms, ";"), nil
}

// headSchedule precomputes the versions published during the run; the
// last entry is the deterministic final head.
func (c Config) headSchedule() []int {
	var heads []int
	head := c.StartHead
	for t := c.AdvanceEvery; t <= c.Duration; t += c.AdvanceEvery {
		head += c.HeadStep
		if head > c.Versions-1 {
			head = c.Versions - 1
		}
		heads = append(heads, head)
	}
	if len(heads) == 0 {
		heads = []int{c.StartHead}
	}
	return heads
}

// churnPlan precomputes which edges die when, and which replacement ids
// join. Victims come from a seeded permutation; kill times are evenly
// spread across the middle of the run.
func (c Config) churnPlan() []ChurnEvent {
	n := int(c.ChurnFraction * float64(c.Edges))
	if n == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(c.Seed + 17))
	victims := rng.Perm(c.Edges)[:n]
	sort.Ints(victims)
	plan := make([]ChurnEvent, n)
	for i, v := range victims {
		killAt := c.Duration.Seconds() * float64(i+1) / float64(n+1)
		ev := ChurnEvent{Edge: v, KillAt: killAt, RejoinAt: -1, NewEdge: -1}
		if rejoin := killAt + c.RejoinDelay.Seconds(); rejoin < c.Duration.Seconds() {
			ev.RejoinAt = rejoin
			ev.NewEdge = c.Edges + i
		}
		plan[i] = ev
	}
	return plan
}

// edgeNode is one simulated edge: a replica plus its lifecycle handles.
type edgeNode struct {
	id     int
	rep    *dist.Replica
	cancel context.CancelFunc
	done   chan struct{}
}

// fleet is one run's live state.
type fleet struct {
	cfg   Config
	chain *dist.Chain

	edgeClient *http.Client
	edgeURL    func(id int) string

	unverified atomic.Uint64

	// start anchors the waterfall clock; publishes and installs are both
	// measured as offsets from it.
	start time.Time

	// pubAt remembers when each head went out; installAt collects, per
	// published seq, how long each verified install trailed its publish.
	// Together they become the report's propagation waterfalls.
	pubMu     sync.Mutex
	pubAt     map[int]time.Duration
	installAt map[int][]float64

	mu    sync.Mutex
	live  map[int]*edgeNode
	nodes []*edgeNode // every edge ever started, for counter totals

	wg sync.WaitGroup
}

// notePublish stamps the moment seq became the published head
// (first-publish wins; the quiet-window republish must not reset it).
func (f *fleet) notePublish(seq int) {
	f.pubMu.Lock()
	if _, ok := f.pubAt[seq]; !ok {
		f.pubAt[seq] = time.Since(f.start)
	}
	f.pubMu.Unlock()
}

// noteInstall records one verified install's delay behind its seq's
// publish. Installs of seqs never published through the head schedule
// (bootstrap snapshots, pre-start relay installs) are skipped.
func (f *fleet) noteInstall(seq int) {
	now := time.Since(f.start)
	f.pubMu.Lock()
	if pub, ok := f.pubAt[seq]; ok && now >= pub {
		f.installAt[seq] = append(f.installAt[seq], (now - pub).Seconds())
	}
	f.pubMu.Unlock()
}

// waterfalls summarises the collected publish→install delays, ascending
// by seq.
func (f *fleet) waterfalls() []SeqWaterfall {
	f.pubMu.Lock()
	defer f.pubMu.Unlock()
	seqs := make([]int, 0, len(f.pubAt))
	for seq := range f.pubAt {
		seqs = append(seqs, seq)
	}
	sort.Ints(seqs)
	out := make([]SeqWaterfall, 0, len(seqs))
	for _, seq := range seqs {
		delays := f.installAt[seq]
		w := SeqWaterfall{
			Seq:         seq,
			PublishedAt: f.pubAt[seq].Seconds(),
			Installs:    len(delays),
			P50:         percentile(delays, 50),
			P99:         percentile(delays, 99),
		}
		for _, d := range delays {
			if d > w.Max {
				w.Max = d
			}
		}
		out = append(out, w)
	}
	return out
}

// Run executes one seeded fleet simulation and returns its report. The
// error path is reserved for setup failures (relay bootstrap, ctx
// cancelled); a fleet that ran but failed to converge reports
// Converged=false instead.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()

	// Faults: Failpoints are armed before any component is built (sites
	// register on first arm), the chaos terms once the relay tier is up;
	// all are disarmed whatever way the run ends. The trigger counters
	// are global to the process, so the report carries the delta across
	// this run, not the absolute counts.
	spec, err := cfg.FaultSpec()
	if err != nil {
		return nil, err
	}
	var fpBase map[string]uint64
	if spec != "" {
		if crash, err := failpoint.SpecHasCrash(spec); err != nil {
			return nil, fmt.Errorf("fleet: failpoints: %w", err)
		} else if crash {
			return nil, fmt.Errorf("fleet: crash-mode failpoints in %q would kill the simulator process; use err mode (crash belongs to internal/torture)", cfg.Failpoints)
		}
		if err := failpoint.Arm(cfg.Failpoints, cfg.Seed); err != nil {
			return nil, fmt.Errorf("fleet: failpoints: %w", err)
		}
		defer failpoint.DisarmAll()
		fpBase = failpoint.TriggerCounts()
	}

	heads := cfg.headSchedule()
	finalHead := heads[len(heads)-1]
	plan := cfg.churnPlan()

	h := history.Generate(history.Config{Versions: cfg.Versions})
	origin := dist.NewOrigin(h)
	origin.SetHead(cfg.StartHead)

	// Origin tier: true-egress meter directly on the origin, its fault
	// site above it, and the client-side transport whoever follows the
	// origin uses.
	originT := NewHandlerTransport(origin)
	originClient := &http.Client{Transport: NewHandlerTransport(fpOrigin.Wrap(originT))}

	f := &fleet{
		cfg:       cfg,
		chain:     origin.Chain(),
		live:      make(map[int]*edgeNode),
		pubAt:     make(map[int]time.Duration),
		installAt: make(map[int][]float64),
	}

	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()

	// Relay tier (when configured): each relay follows the origin
	// through the origin-tier site, re-serves downstream behind the
	// relay-tier site, and every verified install is checked against the
	// origin chain — relays are held to the same zero-unverified
	// invariant as edges.
	var (
		relays    []*dist.Relay
		relayT    []*HandlerTransport
		relayDone = make(chan struct{})
	)
	if cfg.Relays > 0 {
		edgeRouter := hostRouter{}
		for i := 0; i < cfg.Relays; i++ {
			rep := dist.NewReplica("http://origin.fleet", dist.ReplicaOptions{
				Client:       originClient,
				PollInterval: cfg.BasePoll / 2,
				BackoffBase:  cfg.BasePoll / 16,
				BackoffMax:   cfg.BasePoll,
				MaxHop:       cfg.MaxHop,
				Seed:         cfg.Seed + 200 + int64(i),
			})
			rep.OnVerified = f.verify
			rl := dist.NewRelay(rep, dist.RelayOptions{Retain: cfg.Retain})
			rt := NewHandlerTransport(rl)
			edgeRouter[fmt.Sprintf("relay%d.fleet", i)] = fpRelay.Wrap(rt)
			relays = append(relays, rl)
			relayT = append(relayT, rt)
		}
		f.edgeClient = &http.Client{Transport: NewHandlerTransport(edgeRouter)}
		f.edgeURL = func(id int) string { return fmt.Sprintf("http://relay%d.fleet", id%cfg.Relays) }

		// Bootstrap every relay before any edge starts: a fleet whose
		// relay tier never came up is a setup failure, not a result.
		for i, rl := range relays {
			if err := bootstrapWithRetry(ctx, rl.Replica()); err != nil {
				return nil, fmt.Errorf("fleet: relay %d bootstrap: %w", i, err)
			}
		}
		var rwg sync.WaitGroup
		for _, rl := range relays {
			rwg.Add(1)
			go func(rep *dist.Replica) {
				defer rwg.Done()
				_ = rep.Run(runCtx)
			}(rl.Replica())
		}
		go func() { rwg.Wait(); close(relayDone) }()
	} else {
		close(relayDone)
		f.edgeClient = originClient
		f.edgeURL = func(int) string { return "http://origin.fleet" }
	}

	// Chaos on the configured tiers. Arming one site seeds it exactly as
	// arming the whole spec would, so FaultSpec stays the recipe.
	chaos, _ := cfg.chaosSpec()
	if err := failpoint.Arm(chaos, cfg.Seed); err != nil {
		return nil, fmt.Errorf("fleet: chaos: %w", err)
	}

	if reg := cfg.Metrics; reg != nil {
		origin.RegisterMetrics(reg)
		failpoint.RegisterMetrics(reg)
		f.registerMetrics(reg, originT, relayT)
	}

	start := time.Now()
	f.start = start
	f.notePublish(cfg.StartHead)

	// Edge population.
	for id := 0; id < cfg.Edges; id++ {
		f.startEdge(runCtx, id)
	}

	// Head advancer: publish the precomputed schedule. finalAt records
	// when the last head went out — the convergence clock's zero.
	var finalAt atomic.Int64
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		for i, head := range heads {
			at := start.Add(time.Duration(i+1) * cfg.AdvanceEvery)
			if !sleepUntil(runCtx, at) {
				return
			}
			origin.SetHead(head)
			f.notePublish(head)
			if head == finalHead && finalAt.Load() == 0 {
				finalAt.Store(int64(time.Since(start)))
			}
		}
	}()

	// Churn scheduler.
	var killed, rejoined atomic.Int64
	for _, ev := range plan {
		ev := ev
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			if !sleepUntil(runCtx, start.Add(time.Duration(ev.KillAt*float64(time.Second)))) {
				return
			}
			if f.killEdge(ev.Edge) {
				killed.Add(1)
			}
			if ev.RejoinAt < 0 {
				return
			}
			if !sleepUntil(runCtx, start.Add(time.Duration(ev.RejoinAt*float64(time.Second)))) {
				return
			}
			f.startEdge(runCtx, ev.NewEdge)
			rejoined.Add(1)
		}()
	}

	// Lag sampler.
	var samplesMu sync.Mutex
	var samples []LagSample
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		tick := time.NewTicker(cfg.SampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-runCtx.Done():
				return
			case <-tick.C:
				s := f.sampleLag(origin.Head(), time.Since(start))
				samplesMu.Lock()
				samples = append(samples, s)
				samplesMu.Unlock()
			}
		}
	}()

	// Churn-and-chaos phase.
	if !sleepUntil(ctx, start.Add(cfg.Duration)) {
		cancelRun()
		f.drain(relayDone)
		return nil, ctx.Err()
	}

	// Quiet convergence window: heal the wire, make sure the final head
	// is out (the advancer might have been a tick from its last step),
	// and wait for every live node to reach it.
	failpoint.Disarm(SiteOrigin)
	failpoint.Disarm(SiteRelay)
	origin.SetHead(finalHead)
	f.notePublish(finalHead)
	if finalAt.Load() == 0 {
		finalAt.Store(int64(time.Since(start)))
	}
	conv, converged := f.awaitConvergence(ctx, relays, finalHead, start, time.Duration(finalAt.Load()), cfg.ConvergeTimeout)

	cancelRun()
	f.drain(relayDone)

	// Assemble the report.
	rep := &Report{
		Config:          cfg,
		Tiers:           1,
		FinalHead:       finalHead,
		Converged:       converged,
		WallClock:       seconds(time.Since(start)),
		UnverifiedSwaps: f.unverified.Load(),
		HeadSchedule:    heads,
		ChurnPlan:       plan,
		Killed:          int(killed.Load()),
		Rejoined:        int(rejoined.Load()),
		Convergence:     conv,
		FaultSpec:       spec,
	}
	samplesMu.Lock()
	rep.LagSeries = samples
	samplesMu.Unlock()
	rep.Waterfalls = f.waterfalls()
	rep.Egress.OriginBytes = originT.Bytes()
	rep.Egress.OriginRequests = originT.Requests()
	if cfg.Relays > 0 {
		rep.Tiers = 2
		for i, rt := range relayT {
			rep.Egress.RelayBytes += rt.Bytes()
			rep.Egress.RelayRequests += rt.Requests()
			rep.Compactions += relays[i].Compactions()
		}
	}
	f.mu.Lock()
	for _, n := range f.nodes {
		rep.Edges.Polls += n.rep.Polls()
		rep.Edges.Applied += n.rep.Applied()
		rep.Edges.FullSyncs += n.rep.FullSyncs()
		rep.Edges.Fallbacks += n.rep.Fallbacks()
		rep.Edges.CompactProbes += n.rep.CompactProbes()
		rep.Edges.CompactHits += n.rep.CompactHits()
		rep.Edges.Retries += n.rep.Retries()
		rep.Edges.PollErrors += n.rep.PollErrors()
		rep.Edges.Persisted += n.rep.Persisted()
		rep.Edges.PersistErrors += n.rep.PersistErrors()
	}
	f.mu.Unlock()
	if spec != "" {
		rep.FailpointTriggers = failpointDelta(fpBase)
	}
	return rep, nil
}

// failpointDelta reports how often each armed site actually fired
// during this run: current global trigger counts minus the base
// snapshot, zero-delta sites omitted.
func failpointDelta(base map[string]uint64) map[string]uint64 {
	out := make(map[string]uint64)
	for name, n := range failpoint.TriggerCounts() {
		if d := n - base[name]; d > 0 {
			out[name] = d
		}
	}
	return out
}

// RunComparison runs cfg and its single-tier equivalent (same seed,
// same edges, Relays=0) and returns both reports; the relay tier earns
// its keep iff the first's origin egress is strictly below the
// second's.
func RunComparison(ctx context.Context, cfg Config) (tiered, naive *Report, err error) {
	tiered, err = Run(ctx, cfg)
	if err != nil {
		return nil, nil, err
	}
	flat := cfg
	flat.Relays = 0
	flat.Metrics = nil
	naive, err = Run(ctx, flat)
	if err != nil {
		return nil, nil, err
	}
	return tiered, naive, nil
}

// verify is the OnVerified hook shared by every node: any install whose
// fingerprint differs from the origin chain's entry for that seq is an
// unverified swap — the invariant violation the report must show zero
// of.
func (f *fleet) verify(_ *psl.List, seq int, fp string) {
	if f.chain.Fingerprint(seq) != fp {
		f.unverified.Add(1)
	}
	f.noteInstall(seq)
}

// startEdge launches edge id: staggered start, bootstrap with retry,
// then a poll loop at a lognormally skewed per-edge interval.
func (f *fleet) startEdge(ctx context.Context, id int) {
	edgeCtx, cancel := context.WithCancel(ctx)
	opts := dist.ReplicaOptions{
		Client:         f.edgeClient,
		PollInterval:   f.cfg.BasePoll,
		RequestTimeout: 4 * f.cfg.BasePoll,
		BackoffBase:    f.cfg.BasePoll / 16,
		BackoffMax:     f.cfg.BasePoll,
		MaxHop:         f.cfg.MaxHop,
		Seed:           f.cfg.Seed + 1000003*int64(id) + 1,
	}
	if f.cfg.EdgeState {
		// A private in-memory disk per edge: every verified install now
		// walks create→write→sync→rename→syncdir through the
		// dist.state.* failpoint sites, and a persistence failure must
		// stay what the replica promises — counted, never blocking the
		// swap.
		opts.StateDir = "state"
		opts.FS = faultfs.NewMemFS(f.cfg.Seed + 2000003*int64(id) + 7)
	}
	node := &edgeNode{
		id:     id,
		rep:    dist.NewReplica(f.edgeURL(id), opts),
		cancel: cancel,
		done:   make(chan struct{}),
	}
	node.rep.OnVerified = f.verify

	f.mu.Lock()
	f.live[id] = node
	f.nodes = append(f.nodes, node)
	f.mu.Unlock()

	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		defer close(node.done)
		rng := rand.New(rand.NewSource(f.cfg.Seed + 1000003*int64(id)))
		// Staggered start: spread the initial thundering herd across one
		// BasePoll.
		if !sleepFor(edgeCtx, time.Duration(rng.Float64()*float64(f.cfg.BasePoll))) {
			return
		}
		for {
			if _, _, err := node.rep.Bootstrap(edgeCtx, -1); err == nil {
				break
			} else if edgeCtx.Err() != nil {
				return
			}
			if !sleepFor(edgeCtx, f.cfg.BasePoll/4+time.Duration(rng.Int63n(int64(f.cfg.BasePoll/2)))) {
				return
			}
		}
		for {
			_ = node.rep.Poll(edgeCtx)
			if edgeCtx.Err() != nil {
				return
			}
			// Lognormal skew: most edges poll near BasePoll, a long tail
			// polls much more lazily — the skewed staleness distribution
			// the paper observes in deployed PSL consumers.
			d := time.Duration(float64(f.cfg.BasePoll) * math.Exp(f.cfg.PollSkew*rng.NormFloat64()))
			d = min(max(d, f.cfg.BasePoll/8), 8*f.cfg.BasePoll)
			if !sleepFor(edgeCtx, d) {
				return
			}
		}
	}()
}

// killEdge cancels edge id and removes it from the live set, reporting
// whether it was alive.
func (f *fleet) killEdge(id int) bool {
	f.mu.Lock()
	node, ok := f.live[id]
	delete(f.live, id)
	f.mu.Unlock()
	if !ok {
		return false
	}
	node.cancel()
	<-node.done
	return true
}

// sampleLag snapshots seqs-behind across live edges against the
// currently published origin head.
func (f *fleet) sampleLag(head int, t time.Duration) LagSample {
	f.mu.Lock()
	lags := make([]float64, 0, len(f.live))
	for _, n := range f.live {
		lag := int64(head) - n.rep.CurrentSeq()
		if lag < 0 {
			lag = 0
		}
		lags = append(lags, float64(lag))
	}
	f.mu.Unlock()
	s := LagSample{T: seconds(t), Live: len(lags)}
	s.P50 = percentile(lags, 50)
	s.P99 = percentile(lags, 99)
	for _, l := range lags {
		if int64(l) > s.Max {
			s.Max = int64(l)
		}
	}
	return s
}

// awaitConvergence waits until every live node (edges and relays)
// reaches the final head, recording per-edge convergence times measured
// from the moment the final head was published.
func (f *fleet) awaitConvergence(ctx context.Context, relays []*dist.Relay, finalHead int, start time.Time, finalAt, timeout time.Duration) (Convergence, bool) {
	deadline := start.Add(finalAt + timeout)
	reached := make(map[int]float64)
	for {
		f.mu.Lock()
		pending := 0
		for id, n := range f.live {
			if _, ok := reached[id]; ok {
				continue
			}
			if n.rep.CurrentSeq() >= int64(finalHead) {
				reached[id] = (time.Since(start) - finalAt).Seconds()
			} else {
				pending++
			}
		}
		liveCount := len(f.live)
		f.mu.Unlock()
		for _, rl := range relays {
			if rl.Replica().CurrentSeq() < int64(finalHead) {
				pending++
			}
		}
		if pending == 0 || time.Now().After(deadline) || ctx.Err() != nil {
			times := make([]float64, 0, len(reached))
			var maxT float64
			for _, t := range reached {
				times = append(times, t)
				if t > maxT {
					maxT = t
				}
			}
			conv := Convergence{
				Converged: len(reached),
				Live:      liveCount,
				P50:       percentile(times, 50),
				P99:       percentile(times, 99),
				Max:       maxT,
			}
			return conv, pending == 0
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// drain waits for every fleet goroutine (edges, schedulers, relays).
func (f *fleet) drain(relayDone <-chan struct{}) {
	f.wg.Wait()
	<-relayDone
	f.edgeClient.CloseIdleConnections()
}

// registerMetrics wires the fleet-level per-tier families: live
// population, lag distribution, unverified swaps, and per-tier egress.
func (f *fleet) registerMetrics(reg *obs.Registry, originT *HandlerTransport, relayT []*HandlerTransport) {
	reg.MustRegister("psl_fleet_live_edges", "Edge replicas currently alive.",
		nil, obs.GaugeFunc(func() float64 {
			f.mu.Lock()
			defer f.mu.Unlock()
			return float64(len(f.live))
		}))
	reg.MustRegister("psl_fleet_unverified_swaps_total", "Installs whose fingerprint diverged from the origin chain.",
		nil, obs.GaugeFunc(func() float64 { return float64(f.unverified.Load()) }))
	reg.MustRegister("psl_fleet_tier_egress_bytes", "Response bytes served by the tier's nodes.",
		obs.Labels{{"tier", TierOrigin}}, obs.GaugeFunc(func() float64 { return float64(originT.Bytes()) }))
	reg.MustRegister("psl_fleet_tier_egress_bytes", "Response bytes served by the tier's nodes.",
		obs.Labels{{"tier", TierRelay}}, obs.GaugeFunc(func() float64 {
			var n uint64
			for _, rt := range relayT {
				n += rt.Bytes()
			}
			return float64(n)
		}))
}

// bootstrapWithRetry bootstraps a replica, retrying transient failures
// for a bounded window.
func bootstrapWithRetry(ctx context.Context, rep *dist.Replica) error {
	var err error
	for i := 0; i < 50; i++ {
		if _, _, err = rep.Bootstrap(ctx, -1); err == nil {
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if !sleepFor(ctx, 10*time.Millisecond) {
			return ctx.Err()
		}
	}
	return err
}

// sleepUntil sleeps until the wall-clock instant, false on ctx end.
func sleepUntil(ctx context.Context, at time.Time) bool {
	return sleepFor(ctx, time.Until(at))
}

// sleepFor sleeps d (immediately true when non-positive), false on ctx
// end.
func sleepFor(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
