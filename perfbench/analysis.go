package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/httparchive"
	"repro/internal/repos"
)

// Analysis-workload shape.
const (
	analysisSetups  = 3
	analysisScale   = 1.0
	analysisChecks  = 2 // versions recomputed from scratch against Figure 5
	analysisWarmOps = 1
)

// analysisEnv holds the generated inputs of one analysis: the history,
// the crawl snapshot (seeded by the workload seed) and the repository
// corpus.
type analysisEnv struct {
	h      *history.History
	snap   *httparchive.Snapshot
	corpus []repos.Repository
	genH   time.Duration
	genS   time.Duration
	digest string
}

func newAnalysisEnv(seed int64) *analysisEnv {
	t0 := time.Now()
	h := history.Generate(history.Config{Seed: history.DefaultSeed})
	t1 := time.Now()
	snap := httparchive.Generate(httparchive.Config{Seed: seed, Scale: analysisScale}, h)
	t2 := time.Now()
	e := &analysisEnv{h: h, snap: snap, corpus: repos.Corpus(history.DefaultSeed), genH: t1.Sub(t0), genS: t2.Sub(t1)}
	d := sha256.New()
	for _, hst := range snap.Hosts {
		io.WriteString(d, hst)
		d.Write([]byte{0})
	}
	var b [12]byte
	for _, p := range snap.Pairs {
		binary.LittleEndian.PutUint32(b[0:], uint32(p.Page))
		binary.LittleEndian.PutUint32(b[4:], uint32(p.Req))
		binary.LittleEndian.PutUint32(b[8:], uint32(p.Count))
		d.Write(b[:])
	}
	e.digest = hex.EncodeToString(d.Sum(nil))[:16]
	return e
}

// passOut is what one pass produces.
type passOut struct {
	sites  []core.SitesPoint
	digest string
}

// pass runs Figures 5, 6, 7 and Table 2 once, recording one span per
// call, and digests every number they produce. The returned duration
// covers the five calls, not the digest.
func (e *analysisEnv) pass(op int64, tr *Tracer) (passOut, time.Duration) {
	t0 := time.Now()
	root := tr.Begin("analysis.pass", op, -1)
	sp := tr.Begin("core.build", op, root)
	p := core.NewPipeline(e.h, e.snap)
	tr.End(sp, 1)
	sp = tr.Begin("core.fig5", op, root)
	fig5 := p.SitesSeries()
	tr.End(sp, 1)
	sp = tr.Begin("core.fig6", op, root)
	fig6 := p.ThirdPartySeries()
	tr.End(sp, 1)
	sp = tr.Begin("core.fig7", op, root)
	fig7 := p.DivergenceSeries()
	tr.End(sp, 1)
	sp = tr.Begin("core.tab2", op, root)
	tab2 := p.MissingETLDs(e.corpus)
	tr.End(sp, 1)
	tr.End(root, 1)
	took := time.Since(t0)

	d := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		d.Write(b[:])
	}
	for _, s := range fig5 {
		put(uint64(s.Sites))
		put(math.Float64bits(s.MeanSize))
	}
	for _, v := range fig6 {
		put(uint64(v))
	}
	for _, v := range fig7 {
		put(uint64(v))
	}
	put(uint64(tab2.TotalETLDs))
	put(uint64(tab2.TotalHostnames))
	for _, r := range tab2.Rows {
		fmt.Fprintf(d, "%+v\n", r)
	}
	return passOut{sites: fig5, digest: hex.EncodeToString(d.Sum(nil))[:16]}, took
}

// checkFull recomputes Figure 5 from scratch at analysisChecks seeded
// versions and compares with the incremental series.
func (e *analysisEnv) checkFull(out passOut, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	n := e.h.Len()
	for k := 0; k < analysisChecks; k++ {
		v := rng.Intn(n)
		if k == 0 {
			v = n - 1
		}
		sites, mean := core.SitesAtVersionFull(e.h.ListAt(v), e.snap.Hosts)
		got := out.sites[v]
		if got.Sites != sites || math.Abs(got.MeanSize-mean) > 1e-9*mean {
			return fmt.Errorf("figure 5 at v%d: pipeline %d sites (mean %.6f), full recomputation %d (%.6f)",
				v, got.Sites, got.MeanSize, sites, mean)
		}
	}
	return nil
}
